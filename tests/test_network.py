"""Claims-line network policy: path identity, cone invariance, and limits."""

import json
import warnings

import numpy as np
import pytest

from parisian_scale import control as ctl
from parisian_scale import mc
from parisian_scale.errors import DomainError, HorizonRequired, NotCheap


def make_spec(premiums, alphas, c0, q=0.5, lam=1.0):
    subs = tuple(
        ctl.Subsidiary(premium=c, lam=lam, phases=((1.0, 2.0),), retention=a)
        for c, a in zip(premiums, alphas)
    )
    return ctl.NetworkSpec(subsidiaries=subs, c0=c0, q=q)


class TestPathIdentity:
    def test_direct_matches_lemma_integrand(self):
        spec = make_spec((2.0, 3.0), (0.5, 0.5), c0=1.0)
        direct, lemma, _ = mc.network_paths(spec, u0=1.0, b=2.0, horizon=40.0,
                                            n_paths=10_000, seed=21)
        scale = np.abs(direct).max()
        assert np.abs(direct - lemma).max() < 1e-9 * max(scale, 1.0)

    def test_cone_invariance_no_shortfall(self):
        spec = make_spec((2.0, 3.0), (0.5, 0.25), c0=1.0)
        _, _, short = mc.network_paths(spec, u0=0.7, b=1.5, horizon=40.0,
                                       n_paths=100_000, seed=22)
        assert short.max() < 1e-12

    def test_needs_a_path(self):
        spec = make_spec((2.0, 3.0), (0.5, 0.5), c0=1.0)
        with pytest.raises(DomainError):
            mc.network_paths(spec, u0=1.0, b=2.0, horizon=10.0, n_paths=0, seed=0)

    def test_bit_identical_across_thread_counts(self, monkeypatch):
        spec = make_spec((2.0, 3.0), (0.5, 0.25), c0=1.0)
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("PARISIAN_SCALE_THREADS", threads)
            runs.append(mc.network_paths(spec, u0=0.7, b=1.5, horizon=10.0,
                                         n_paths=(1 << 16) + 300, seed=5))
        for one, two in zip(*runs):
            assert one.tobytes() == two.tobytes()

    @pytest.mark.parametrize("u0", [1.0, 2.0])
    def test_no_premium_is_read_without_a_warning(self, u0):
        """c0 = 0 is a valid (cheap) spec: a level below b never rises to it, t_hit = inf,
        and no division by c0 = 0 warns."""
        spec = make_spec((2.0, 3.0), (0.5, 0.25), c0=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            direct, lemma, short = mc.network_paths(spec, u0=u0, b=2.0, horizon=40.0,
                                                    n_paths=10_000, seed=3)
        assert np.isfinite(direct).all() and short.max() < 1e-12
        assert np.abs(direct - lemma).max() < 1e-9 * max(np.abs(direct).max(), 1.0)

    def test_not_cheap_rejected(self):
        spec = make_spec((3.0, 2.0), (1.0 / 3.0, 0.5), c0=10.0)
        with pytest.raises(NotCheap):
            mc.network_paths(spec, u0=1.0, b=2.0, horizon=10.0, n_paths=10, seed=0)


def _set_sub(key, value, phase=False):
    def change(raw):
        sub = raw["subsidiaries"][0]
        (sub["phases"][0] if phase else sub)[key] = value
    return change


# network specs that give a wrong value, a traceback or no end unless refused, with what
# the refusal says
BAD_SPECS = {
    "negative-lambda": (_set_sub("lambda", -1.0), "subsidiary 0: field 'lambda'"),
    "negative-rate": (_set_sub("rate", -2.0, phase=True), "subsidiary 0: phase rates"),
    "weights-sum-to-0.3": (_set_sub("weight", 0.3, phase=True), "subsidiary 0: phase weights"),
    "negative-c0": (lambda raw: raw.update(c0=-1.0), "the premium c0"),
    "no-claims": (lambda raw: [s.update({"lambda": 0.0}) for s in raw["subsidiaries"]],
                  "total claim rate"),
    "nan-lambda": (_set_sub("lambda", float("nan")), "subsidiary 0: field 'lambda'"),
    "zero-c": (_set_sub("c", 0.0), "subsidiary 0: field 'c'"),
}


class TestDomain:
    @pytest.mark.parametrize("q,u0,b", [
        (0.5, "math.nan", 2.0), (0.5, 1.0, "math.inf"), (0.5, 1.0, "math.nan"),
        ("math.nan", 1.0, 2.0), ("math.inf", 1.0, 2.0),
        (0.5, -0.5, 2.0), (0.5, 0.0, -1.0), (0.5, 3.0, 2.0),
    ])
    def test_refuses_what_it_cannot_simulate(self, python_child, q, u0, b):
        script = (
            "import math\n"
            "from parisian_scale import control as ctl, mc\n"
            "from parisian_scale.errors import DomainError\n"
            "try:\n"
            "    spec = ctl.NetworkSpec(subsidiaries=(ctl.Subsidiary(\n"
            "        premium=2.0, lam=1.0, phases=((1.0, 2.0),), retention=0.5),),\n"
            f"        c0=1.0, q={q})\n"
            f"    mc.network_estimate(spec, {u0}, {b}, n_paths=100)\n"
            "except DomainError:\n"
            "    print('refused')\n"
        )
        done = python_child(["-c", script])
        assert done.stdout.strip() == "refused", done.stderr

    @pytest.mark.parametrize("name", sorted(BAD_SPECS))
    def test_refuses_a_spec_it_cannot_simulate(self, python_child, tmp_path, name):
        """In the library and in `network` (exit 1, one stderr line naming the subsidiary and
        the spec's field); "nan-lambda" never ended unrefused, so each runs in a child
        process."""
        raw = {"c0": 1.0, "q": 0.5, "subsidiaries": [
            {"c": 2.0, "lambda": 1.0, "alpha": 0.5, "phases": [{"weight": 1.0, "rate": 2.0}]},
            {"c": 3.0, "lambda": 1.0, "alpha": 0.25, "phases": [{"weight": 1.0, "rate": 2.0}]}]}
        change, message = BAD_SPECS[name]
        change(raw)
        p = tmp_path / "net.json"
        p.write_text(json.dumps(raw))
        script = (
            "import sys\n"
            "from parisian_scale import cli, mc\n"
            "from parisian_scale.errors import ParisianScaleError\n"
            "try:\n"
            f"    spec = cli.load_json({str(p)!r}, cli._network_spec)\n"
            "    mc.network_estimate(spec, 1.0, 2.0, n_paths=100)\n"
            "except ParisianScaleError:\n"
            "    print('refused')\n"
            f"sys.exit(cli.main(['network', '--spec', {str(p)!r}, '--u0', '1', '--b', '2', "
            "'--paths', '100']))\n"
        )
        done = python_child(["-c", script])
        assert done.stdout.strip() == "refused", done.stderr
        assert done.returncode == 1 and done.stderr.count("\n") == 1, done.stderr
        assert message in done.stderr, done.stderr

    def test_cli_nan_u0_is_one(self, python_child, tmp_path):
        p = tmp_path / "net.json"
        p.write_text(json.dumps({"c0": 1.0, "q": 0.5, "subsidiaries": [
            {"c": 2.0, "lambda": 1.0, "alpha": 0.5, "phases": [{"weight": 1.0, "rate": 2.0}]}]}))
        done = python_child(["-m", "parisian_scale.cli", "network", "--spec", str(p),
                             "--u0", "nan", "--b", "2", "--paths", "100"])
        assert done.returncode == 1 and done.stderr.count("\n") == 1, done.stderr

    def test_zero_q_needs_a_horizon(self):
        spec = make_spec((2.0,), (0.5,), c0=1.0, q=0.0)
        with pytest.raises(HorizonRequired):
            mc.network_estimate(spec, 1.0, 2.0, n_paths=100)
        assert np.isfinite(mc.network_estimate(spec, 1.0, 2.0, horizon=5.0, n_paths=100).mean)


class TestValues:
    def test_deterministic_pinned_value(self):
        """With no claims and u0 = b the total premium flows out as dividends."""
        spec = make_spec((2.0,), (0.5,), c0=1.0, q=1.0, lam=1e-12)
        est = mc.network_estimate(spec, u0=0.0, b=0.0, n_paths=500, seed=23)
        assert est.mean == pytest.approx((1.0 + 2.0) / 1.0, rel=1e-6)
        assert est.std_error < 1e-9

    def test_value_bounded_by_total_premium_rate(self):
        spec = make_spec((2.0, 3.0), (0.5, 0.5), c0=1.0, q=10.0)
        est = mc.network_estimate(spec, u0=0.0, b=0.0, n_paths=20_000, seed=24)
        assert 0.0 < est.mean <= (1.0 + 5.0) / 10.0 + 1e-9

    def test_determinism(self):
        spec = make_spec((2.0, 3.0), (0.5, 0.5), c0=1.0)
        a = mc.network_estimate(spec, 1.0, 2.0, horizon=30.0, n_paths=20_000, seed=7)
        b = mc.network_estimate(spec, 1.0, 2.0, horizon=30.0, n_paths=20_000, seed=7)
        assert a.mean == b.mean
