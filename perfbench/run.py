"""parisian-scale benchmark: tabulate, barrier and oracle workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tabulate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

One run builds its inputs from the seed, sets up, then repeats whole rounds
of the workload's operations (one client, closed loop) for about
``--seconds`` seconds, checks every result, and prints a summary followed by
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the run
first measures some rounds untraced, then installs the tracer and reports
the per-layer metrics and the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("tabulate", "barrier", "oracle")
SETUP_PROBES = 3
MIN_ROUNDS = 3
TRACE_MIN_ROUNDS = 2
MAX_REPORTED_FAILURES = 5


class Library:
    """The package under test, imported from this checkout's ``src``."""

    def __init__(self):
        init = os.path.join(SRC, "parisian_scale", "__init__.py")
        if not os.path.isfile(init):
            raise FileNotFoundError(f"no parisian_scale package under {SRC}")
        sys.path.insert(0, SRC)
        import parisian_scale
        from parisian_scale import cli, control, expmix, laws, mc, model, scale

        if os.path.dirname(os.path.abspath(parisian_scale.__file__)) != os.path.dirname(init):
            raise ImportError(f"parisian_scale imported from {parisian_scale.__file__}, not {SRC}")
        self.package = parisian_scale
        self.cli, self.control, self.expmix, self.laws = cli, control, expmix, laws
        self.mc, self.model, self.scale = mc, model, scale
        self.LevyModel = parisian_scale.LevyModel
        # every memo cache of the layers, found before any tracer wraps them
        self.caches = [obj for mod in (cli, control, expmix, laws, mc, model, scale)
                       for obj in vars(mod).values() if hasattr(obj, "cache_clear")]
        self.z_mix = getattr(scale, "z_mix", None)

    def clear_caches(self):
        for cache in self.caches:
            cache.cache_clear()

    def z_mix_info(self):
        info = getattr(self.z_mix, "cache_info", None)
        return info() if info is not None else None


def make_workload(name: str, seed: int, lib: Library, workdir: str):
    import workloads

    if name == "tabulate":
        return workloads.Tabulate(seed, workdir, lib.cli)
    if name == "barrier":
        return workloads.Barrier(seed, lib)
    threads = len(os.sched_getaffinity(0))
    os.environ["PARISIAN_SCALE_THREADS"] = str(threads)
    return workloads.Oracle(seed, lib, threads)


class Runner:
    """Runs whole rounds of a workload's operations and records each one."""

    def __init__(self, ops, lib: Library, tracer=None):
        self.ops, self.lib, self.tracer = ops, lib, tracer
        self.times, self.walls, self.points, self.groups = [], [], [], []
        self.attempted = 0
        self.failed = 0
        self.unexpected = []            # failures outside the known-fault group
        self.known_failures = {}        # label -> message
        self.round_times = []
        self.z_hits = self.z_misses = 0

    def prime(self):
        """Fill every operation's reference cache before the clock starts, so
        that high-precision references never run between timed operations."""
        for op in self.ops:
            try:
                op.prime()
            except Exception:       # the timed rounds report the failure
                pass

    def round(self):
        self.lib.clear_caches()
        tracer = self.tracer
        op_time = 0.0
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.begin_op(self.attempted, op.group)
                tracer.enabled = True
            # the process's CPU time (all threads) is the measure; wall time,
            # which also counts the time a shared host takes the vCPUs away,
            # is kept for the summary only
            w0, t0 = perf_counter(), process_time()
            try:
                result, err = op.call(), None
            except Exception as exc:    # a failed operation is counted, not fatal
                result, err = None, f"{type(exc).__name__}: {exc}"
            dt = process_time() - t0
            wall = perf_counter() - w0
            if tracer is not None:
                tracer.enabled = False
            if err is None:
                err = op.check(result)
            self.attempted += 1
            op_time += dt
            self.times.append(dt)
            self.walls.append(wall)
            self.groups.append(op.group)
            if callable(op.points):
                self.points.append(op.points(result) if result is not None else 0)
            else:
                self.points.append(op.points)
            if err is not None:
                self.failed += 1
                if op.known_fault:
                    self.known_failures[op.label + f"#{i}"] = err
                else:
                    self.unexpected.append(f"{op.label}: {err}")
        info = self.lib.z_mix_info()
        if info is not None:
            self.z_hits += info.hits
            self.z_misses += info.misses
        self.round_times.append(op_time)

    def run_for(self, seconds: float, min_rounds: int = MIN_ROUNDS):
        """Whole rounds until the next one would end after ``seconds``."""
        start = perf_counter()
        while True:
            r0 = perf_counter()
            self.round()
            now = perf_counter()
            if len(self.round_times) >= min_rounds and now - start + (now - r0) > seconds:
                return

    def slot_medians(self):
        """Each operation's median time over the rounds, and its work units."""
        n = len(self.ops)
        return ([statistics.median(self.times[i::n]) for i in range(n)],
                self.points[:n], self.groups[:n])


def percentile(values, p):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(runner: Runner, setup_s: float) -> dict:
    """Throughput of the median round (each operation at its median CPU time)
    and latency percentiles over every operation of the run."""
    times, points, groups = runner.slot_medians()
    busy = sum(times)
    work_time = sum(t for p, t in zip(points, times) if p > 0)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(times) / busy, "op/s"),
        "op_p50_ms": (1e3 * percentile(runner.times, 0.5), "ms"),
        "op_p90_ms": (1e3 * percentile(runner.times, 0.9), "ms"),
        "points_per_s": (sum(points) / work_time, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {}
    for g in dict.fromkeys(groups):
        p = sum(pt for pt, gg in zip(points, groups) if gg == g)
        t = sum(tt for tt, gg in zip(times, groups) if gg == g)
        n = groups.count(g)
        unit = "paths" if g in ("absorb", "reflect", "network", "red") else "points"
        if p > 0:
            extra[f"{g}_{unit}_per_s"] = (p / t, "1/s")
        extra[f"{g}_ms_per_op"] = (1e3 * t / n, "ms")
    n = len(runner.ops)
    walls = [statistics.median(runner.walls[i::n]) for i in range(n)]
    extra["wall_ops_per_s"] = (n / sum(walls), "op/s")
    extra["wall_op_p50_ms"] = (1e3 * percentile(runner.walls, 0.5), "ms")
    extra["rounds"] = (len(runner.round_times), "round")
    return metrics, extra


def per_layer(t, runner: Runner, untraced_round_s: float) -> dict:
    """Per-layer metrics of the traced rounds; counts are per operation."""
    n = max(runner.attempted, 1)

    def mean_us(name):
        return 1e6 * t.total(name) / t.calls(name) if t.calls(name) else 0.0

    cli_calls = t.calls("cli.main")
    laws_calls, laws_total = t.outer.get("laws", [0, 0.0])
    solves = t.calls("control.optimize_barrier")
    horizons = t.captured.get("mc.default_horizon", [])
    lookups = runner.z_hits + runner.z_misses
    traced_round_s = sum(runner.slot_medians()[0])
    return {
        "cli.self_ms": (1e3 * t.self_time(layer="cli") / cli_calls if cli_calls else 0.0, "ms"),
        "model.root_set_calls": (t.calls("model.root_set") / n, "calls/op"),
        "model.root_set_us": (mean_us("model.root_set"), "us"),
        "model.phi_calls": (t.calls("model.phi") / n, "calls/op"),
        "model.phi_us": (mean_us("model.phi"), "us"),
        "expmix.build_calls": (t.calls("expmix.ExpMix.build") / n, "calls/op"),
        "expmix.build_self_s": (t.self_time("expmix.ExpMix.build") / n, "s/op"),
        "expmix.derivative_calls": (t.calls("expmix.ExpMix.derivative") / n, "calls/op"),
        "expmix.antiderivative_calls": (t.calls("expmix.ExpMix.antiderivative") / n, "calls/op"),
        "expmix.eval_calls": (t.calls("expmix.ExpMix.__call__") / n, "calls/op"),
        "expmix.eval_self_s": ((t.self_time("expmix.ExpMix.__call__")
                                + t.self_time("expmix.ExpMix.value_complex")) / n, "s/op"),
        "expmix.self_s": (t.self_time(layer="expmix") / n, "s/op"),
        "scale.build_scale_us": (mean_us("scale.build_scale"), "us"),
        "scale.build_parisian_us": (mean_us("scale.build_parisian"), "us"),
        "scale.z_mix_hit_ratio": (runner.z_hits / lookups if lookups else 0.0, "ratio"),
        "scale.z_mix_lookups": (lookups / n, "calls/op"),
        "scale.self_s": (t.self_time(layer="scale") / n, "s/op"),
        "laws.calls": (laws_calls / n, "calls/op"),
        "laws.scalar_us": (1e6 * laws_total / laws_calls if laws_calls else 0.0, "us"),
        "laws.self_s": (t.self_time(layer="laws") / n, "s/op"),
        "control.G_calls_per_solve": (t.calls("control.barrier_function") / solves if solves else 0.0,
                                      "calls/solve"),
        "control.G_us": (mean_us("control.barrier_function"), "us"),
        "control.self_s": (t.self_time(layer="control") / n, "s/op"),
        "mc.absorb_estimate_s": (t.group_mean("mc.estimate", "absorb"), "s"),
        "mc.reflect_estimate_s": (t.group_mean("mc.estimate", "reflect"), "s"),
        "mc.horizon_T": (statistics.mean(horizons) if horizons else 0.0, "model_time"),
        "mc.network_s": (t.group_mean("mc.network_paths", "network"), "s"),
        "mc.self_s": (t.self_time(layer="mc") / n, "s/op"),
        "trace.overhead_pct": (100.0 * (traced_round_s / untraced_round_s - 1.0), "%"),
    }


def setup(workload: str, seed: int, workdir: str):
    lib = Library()
    wl = make_workload(workload, seed, lib, workdir)
    wl.warmup()
    return lib, wl


def child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def probe_setup(workload: str, seed: int) -> float:
    """CPU time of a fresh process that starts, sets up and exits."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    c0 = child_cpu_s()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or not line.startswith("READY"):
        raise RuntimeError(f"set-up probe exited with code {code}")
    return child_cpu_s() - c0


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run_one(args) -> int:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        try:
            lib, wl = setup(args.workload, args.seed, workdir)
        except (ImportError, FileNotFoundError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.setup_probe:
            print("READY", flush=True)
            return 0
        runner = Runner(wl.ops(), lib)
        runner.prime()
        if not args.trace:
            runner.run_for(args.seconds)
            setup_s = statistics.median(probe_setup(args.workload, args.seed)
                                        for _ in range(SETUP_PROBES))
            metrics, extra = end_to_end(runner, setup_s)
        else:
            import tracer as tracing

            tr = tracing.Tracer(lib.package)
            traced = Runner(runner.ops, lib, tr)
            start = perf_counter()
            # untraced and traced rounds alternate, so both see the same machine
            while True:
                r0 = perf_counter()
                runner.round()
                tr.install()
                try:
                    traced.round()
                finally:
                    tr.uninstall()
                now = perf_counter()
                if (len(traced.round_times) >= TRACE_MIN_ROUNDS
                        and now - start + (now - r0) > args.seconds):
                    break
            untraced_round_s = sum(runner.slot_medians()[0])
            metrics = per_layer(tr, traced, untraced_round_s)
            tr.dump(os.path.join(ROOT, ".perfbench_out",
                                 f"spans-{args.workload}-seed{args.seed}.json"))
            extra = {"untraced_rounds": (len(runner.round_times), "round"),
                     "traced_rounds": (len(traced.round_times), "round"),
                     "spans_kept": (len(tr.spans), "span"), "spans_dropped": (tr.dropped, "span")}
            for attr in ("attempted", "failed"):
                setattr(runner, attr, getattr(runner, attr) + getattr(traced, attr))
            runner.unexpected += traced.unexpected
            runner.known_failures.update(traced.known_failures)
    correct = not runner.unexpected
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (v, unit) in list(metrics.items()) + list(extra.items()):
        print(f"{name:32s} {fmt(v):>14s} {unit}")
    print(f"{'attempted':32s} {runner.attempted:>14d} op")
    print(f"{'failed':32s} {runner.failed:>14d} op  "
          f"({len(runner.known_failures)} distinct in the wide-b group)")
    for label, msg in sorted(runner.known_failures.items()):
        print(f"  known fault  {label}: {msg}")
    for msg in runner.unexpected[:MAX_REPORTED_FAILURES]:
        print(f"UNEXPECTED FAILURE {msg}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    results, code = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
