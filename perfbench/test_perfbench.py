"""Tests of the benchmark itself: reduced workloads, the checker, the tracer.

Run with ``python -m pytest perfbench`` from the root of the checkout.
"""

import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return run.Library()


def one_round(lib, wl):
    runner = run.Runner(wl.ops(), lib)
    runner.round()
    return runner


def test_tabulate_reduced_only_wide_b_fails(lib, tmp_path):
    wl = workloads.Tabulate(3, str(tmp_path), lib.cli, short_n=(5, 7), long_n=60)
    runner = one_round(lib, wl)
    assert runner.unexpected == []
    assert runner.attempted == len(wl.requests)
    wide = sum(1 for req in wl.requests if req.wide_b)
    assert wide == len(workloads.WIDE_B_LAWS) * len(workloads.WIDE_B)
    assert runner.failed == len(runner.known_failures) <= wide


def test_barrier_reduced(lib):
    wl = workloads.Barrier(3, lib)
    wl.N_GRID = 200
    runner = one_round(lib, wl)
    assert runner.unexpected == []
    assert runner.failed == 0


def test_oracle_reduced(lib):
    wl = workloads.Oracle(3, lib, threads=1, paths=20_000, network_paths=2_000)
    runner = one_round(lib, wl)
    assert runner.unexpected == []
    assert runner.failed == 0


def test_checker_flags_relative_perturbation(lib, tmp_path):
    wl = workloads.Tabulate(4, str(tmp_path), lib.cli, short_n=(5, 7), long_n=60)
    checked = 0
    for req, op in zip(wl.requests, wl.ops()):
        if req.kind not in ("law", "scale") or req.wide_b:
            continue
        result = op.call()
        assert op.check(result) is None
        header, rows = result
        col = 1 if req.kind == "law" else header.index("W")
        i = next((i for i in req.sample if abs(rows[i][col]) > 1e-3), None)
        if i is None:
            continue
        rows[i][col] *= 1.0 + 1e-8
        assert op.check((header, rows)) is not None, req.argv
        checked += 1
        if checked == 4:
            break
    assert checked == 4


def test_checker_flags_wrong_oracle_mean(lib):
    wl = workloads.Oracle(5, lib, threads=1, paths=20_000)
    op = wl.ops()[0]
    est = op.call()
    assert op.check(est) is None
    shifted = type(est)(mean=est.mean + 5 * est.std_error, std_error=est.std_error,
                        n_paths=est.n_paths, ci95=est.ci95, tail_bound=est.tail_bound)
    assert op.check(shifted) is not None


def test_oracle_estimate_bit_identical_across_threads(lib, monkeypatch):
    wl = workloads.Oracle(6, lib, threads=2)
    cfg, fn = wl._config(workloads.M1, "parisian_severity", {"theta": 1.0})
    n = 2 * workloads.CHUNK_PATHS + 1000
    results = []
    for threads in ("1", "2"):
        monkeypatch.setenv("PARISIAN_SCALE_THREADS", threads)
        est = lib.mc.estimate(cfg, fn, n, seed=17)
        results.append((est.mean, est.std_error))
    assert results[0] == results[1]


def test_tracer_counts_layers_and_uninstalls(lib, tmp_path):
    original = lib.scale.z_mix
    wl = workloads.Tabulate(7, str(tmp_path), lib.cli, short_n=(5, 7), long_n=60)
    tr = tracing.Tracer(lib.package)
    tr.install()
    try:
        assert lib.scale.z_mix is not original
        assert lib.laws.z_mix is lib.scale.z_mix      # names imported with from-import
        runner = run.Runner(wl.ops()[:12], lib, tr)
        runner.round()
    finally:
        tr.uninstall()
    assert lib.scale.z_mix is original and lib.laws.z_mix is original
    metrics = run.per_layer(tr, runner, untraced_round_s=sum(runner.times))
    assert metrics["laws.calls"][0] > 0
    assert metrics["expmix.build_calls"][0] > 0
    assert metrics["model.root_set_calls"][0] > 0
    assert metrics["cli.self_ms"][0] > 0
    assert 0.0 <= metrics["scale.z_mix_hit_ratio"][0] <= 1.0
    assert all(math.isfinite(v) for v, _ in metrics.values())
    names = set(tr.names)
    assert {"cli.main", "scale.build_scale", "expmix.ExpMix.build"} <= names
    parents = [s[3] for s in tr.spans]
    assert parents.count(-1) >= 12                  # one root span per request


def test_runs_fail_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "barrier",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
