"""Oracle checks: determinism, path accounting, and analytic cross-checks."""

import math
import os

import numpy as np
import pytest
from test_mc_engine import balance_residuals

from parisian_scale import INF, LevyModel, build_parisian, build_scale, laws, mc
from parisian_scale.errors import DomainError, HorizonRequired, SigmaUnsupported


def m1_cfg(m1, **kw):
    return mc.PathConfig(model=m1, **kw)


class TestConstruction:
    def test_rejects_brownian(self, m2):
        with pytest.raises(SigmaUnsupported):
            mc.PathConfig(model=m2, x0=0.5)

    def test_parisian_needs_rate(self, m1):
        with pytest.raises(Exception):
            mc.PathConfig(model=m1, x0=0.5, lower="parisian_absorb", r=0.0)

    def test_horizon_required_at_q_zero(self):
        with pytest.raises(HorizonRequired):
            mc.default_horizon(0.0, 1.0, 2.0)

    @pytest.mark.parametrize("kw", [
        {"x0": 3.0, "upper_barrier": 2.0},           # stopped "at b" at time -1
        {"x0": math.nan, "upper_barrier": 2.0},
        {"x0": -math.inf},
        {"q": math.nan}, {"q": -0.5}, {"q": math.inf},
        {"horizon": -1.0},
        {"lower": "parisian_absorb", "r": math.nan},  # every path the same, se 0
    ])
    def test_refuses_what_it_cannot_simulate(self, m1, kw):
        kw = {"x0": 0.5, "q": 0.5, "upper_barrier": 2.0, "lower": "classical_absorb", **kw}
        with pytest.raises(DomainError):
            m1_cfg(m1, **kw)

    def test_unknown_functional_refused_when_built(self):
        with pytest.raises(DomainError):
            mc.Functional("dividendz")

    @pytest.mark.parametrize("kw", [{"theta": math.nan}, {"k": math.nan}, {"k": math.inf},
                                    {"red_rate": math.nan}, {"red_rate": -math.inf}])
    def test_non_finite_functional_refused(self, kw):
        with pytest.raises(DomainError):
            mc.Functional("slg", **kw)

    def test_infinite_theta_and_negative_k_stay(self):
        assert mc.Functional("up_exit", theta=math.inf).theta == math.inf
        assert mc.Functional("slg", k=-2.0).k == -2.0

    def test_needs_a_path(self, m1):
        cfg = m1_cfg(m1, x0=0.5, q=0.5, upper_barrier=1.5, lower="classical_absorb")
        with pytest.raises(DomainError):
            mc.estimate(cfg, mc.Functional("up_exit"), n_paths=0)


# configurations in which nothing need ever stop a path: (PathConfig, Functional)
NEVER_STOPS = {
    "reflect-at-0-no-barrier": ("PathConfig(M1, x0=0.5, q=0.5, lower='classical_reflect')",
                                "Functional('bailouts')"),
    "absorb-at-0-positive-drift": ("PathConfig(M1, x0=0.5, q=0.5, lower='classical_absorb')",
                                   "Functional('severity', theta=1.0)"),
    "reflect-at-0-and-b": ("PathConfig(M1, x0=0.5, q=0.5, upper_barrier=1.5, "
                           "upper_mode='reflect', lower='classical_reflect')",
                           "Functional('severity')"),
}


# calls that loop for ever on an input no path can be simulated on, unless refused
NEVER_ENDS = {
    "infinite-barrier": "estimate(PathConfig(M1, x0=0.5, q=0.5, upper_barrier=math.inf, "
                        "lower='classical_absorb'), Functional('up_exit'), 100)",
    "nan-horizon": "estimate(PathConfig(M1, x0=0.5, q=0.5, upper_barrier=2.0, "
                   "lower='classical_absorb', horizon=math.nan), Functional('up_exit'), 100)",
    "infinite-observation-rate": "estimate(PathConfig(M1, x0=0.5, q=0.5, upper_barrier=2.0, "
                                 "lower='parisian_absorb', r=math.inf), "
                                 "Functional('up_exit'), 100)",
    "network-nan-horizon": "network_paths(SPEC, 1.0, 2.0, math.nan, 100)",
}


class TestStopping:
    @pytest.mark.parametrize("name", sorted(NEVER_STOPS))
    def test_never_stopping_config_is_refused(self, name, python_child):
        """Run in a child process, so that a loop that never ends fails on its timeout."""
        cfg, fn = NEVER_STOPS[name]
        script = (
            "from parisian_scale import LevyModel\n"
            "from parisian_scale.errors import HorizonRequired\n"
            "from parisian_scale.mc import Functional, PathConfig, estimate\n"
            "M1 = LevyModel(c=1.0, sigma2=0.0, lam=1.0, phases=((1.0, 2.0),))\n"
            "try:\n"
            f"    estimate({cfg}, {fn}, 100)\n"
            "except HorizonRequired:\n"
            "    print('refused')\n"
        )
        done = python_child(["-c", script])
        assert done.stdout.strip() == "refused", done.stderr

    @pytest.mark.parametrize("name", sorted(NEVER_ENDS))
    def test_input_that_never_ends_is_refused(self, name, python_child):
        script = (
            "import math\n"
            "from parisian_scale import LevyModel, control as ctl\n"
            "from parisian_scale.errors import DomainError\n"
            "from parisian_scale.mc import Functional, PathConfig, estimate, network_paths\n"
            "M1 = LevyModel(c=1.0, sigma2=0.0, lam=1.0, phases=((1.0, 2.0),))\n"
            "SPEC = ctl.NetworkSpec(subsidiaries=(ctl.Subsidiary(\n"
            "    premium=2.0, lam=1.0, phases=((1.0, 2.0),), retention=0.5),), c0=1.0, q=0.5)\n"
            "try:\n"
            f"    {NEVER_ENDS[name]}\n"
            "except DomainError:\n"
            "    print('refused')\n"
        )
        done = python_child(["-c", script])
        assert done.stdout.strip() == "refused", done.stderr

    def test_cli_infinite_start_is_one(self, python_child, tmp_path):
        p = tmp_path / "m1.json"
        p.write_text('{"c": 1.0, "lambda": 1.0, "phases": [{"weight": 1.0, "rate": 2.0}]}')
        done = python_child(["-m", "parisian_scale.cli", "simulate", "time_in_red", "--model",
                             str(p), "--q", "0", "--r", "1", "--x", "inf", "--paths", "100"])
        assert done.returncode == 1 and done.stderr.count("\n") == 1, done.stderr

    @pytest.mark.parametrize("c,barrier,upper,lower,stops", [
        (1.0, 1.5, "absorb", "none", True),              # drift 1/2 carries it to b
        (0.4, 1.5, "absorb", "none", False),             # drift -1/10 can carry it off below
        (0.4, 1.5, "absorb", "classical_reflect", True),
        (0.4, None, "absorb", "classical_absorb", True),  # ruin is certain
        (1.0, None, "absorb", "classical_absorb", False),
        (1.0, 1.5, "reflect", "parisian_absorb", True),
        (1.0, 1.5, "reflect", "parisian_reflect", False),
        (1.0, None, "absorb", "none", False),
    ])
    def test_stopping_rule(self, c, barrier, upper, lower, stops):
        model = LevyModel(c=c, sigma2=0.0, lam=1.0, phases=((1.0, 2.0),))
        cfg = mc.PathConfig(model=model, x0=0.5, q=0.5, upper_barrier=barrier,
                            upper_mode=upper, lower=lower,
                            r=1.0 if lower.startswith("parisian") else 0.0)
        assert mc._stops(cfg) is stops


def test_no_claims_path_reaches_the_barrier_on_time():
    """Without claims every path rises at rate c and is absorbed at b at time (b - x)/c."""
    x, b, q = 0.3, 1.7, 0.8
    cfg = mc.PathConfig(model=LevyModel(c=1.0), x0=x, q=q, upper_barrier=b)
    est = mc.estimate(cfg, mc.Functional("up_exit"), 1000, seed=3)
    assert est.mean == pytest.approx(math.exp(-q * (b - x) / 1.0), rel=1e-14, abs=0)
    assert est.std_error == 0.0


class TestDeterminism:
    def test_bit_identical_across_runs(self, m1):
        cfg = m1_cfg(m1, x0=0.5, q=2.0 / 3.0, upper_barrier=1.5, lower="classical_absorb")
        fn = mc.Functional("up_exit")
        a = mc.estimate(cfg, fn, n_paths=50_000, seed=42)
        b = mc.estimate(cfg, fn, n_paths=50_000, seed=42)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_bit_identical_across_thread_counts(self, m1):
        cfg = m1_cfg(m1, x0=0.5, q=2.0 / 3.0, upper_barrier=1.5,
                     upper_mode="reflect", lower="classical_reflect")
        fn = mc.Functional("slg", k=2.5)
        old = os.environ.get("PARISIAN_SCALE_THREADS")
        try:
            os.environ["PARISIAN_SCALE_THREADS"] = "1"
            one = mc.estimate(cfg, fn, n_paths=200_000, seed=9)
            os.environ["PARISIAN_SCALE_THREADS"] = "4"
            four = mc.estimate(cfg, fn, n_paths=200_000, seed=9)
        finally:
            if old is None:
                os.environ.pop("PARISIAN_SCALE_THREADS", None)
            else:
                os.environ["PARISIAN_SCALE_THREADS"] = old
        assert one.mean == four.mean and one.std_error == four.std_error

    def test_seed_changes_stream(self, m1):
        cfg = m1_cfg(m1, x0=0.5, q=2.0 / 3.0, upper_barrier=1.5, lower="classical_absorb")
        fn = mc.Functional("up_exit")
        a = mc.estimate(cfg, fn, n_paths=20_000, seed=1)
        b = mc.estimate(cfg, fn, n_paths=20_000, seed=2)
        assert a.mean != b.mean


class TestPathAccounting:
    def test_balance_identity(self, m1):
        configs = [
            m1_cfg(m1, x0=0.8, q=0.5, upper_barrier=2.0, upper_mode="reflect",
                   lower="classical_reflect", horizon=30.0),
            m1_cfg(m1, x0=0.3, q=0.5, upper_barrier=1.2, lower="classical_absorb",
                   horizon=30.0),
            m1_cfg(m1, x0=0.3, q=0.5, upper_barrier=1.2, upper_mode="reflect",
                   lower="parisian_reflect", r=2.0, horizon=30.0),
            m1_cfg(m1, x0=0.3, q=0.5, upper_barrier=1.2, lower="parisian_absorb",
                   r=2.0, horizon=30.0),
        ]
        for seed, cfg in enumerate(configs):
            assert np.abs(balance_residuals(cfg, 40, seed)).max() < 1e-9

    def test_deterministic_drift_path(self):
        """With no claims the first passage of b is exact: tau = (b - x)/c."""
        model = LevyModel(c=1.0, sigma2=0.0, lam=1e-12, phases=((1.0, 2.0),))
        q = 0.7
        cfg = mc.PathConfig(model=model, x0=0.0, q=q, upper_barrier=1.0,
                            lower="classical_absorb")
        est = mc.estimate(cfg, mc.Functional("up_exit"), n_paths=2_000, seed=3)
        assert est.mean == pytest.approx(math.exp(-q), rel=1e-6)
        assert est.std_error < 1e-9

    def test_parisian_reflect_start_positive_no_bailouts(self, m1):
        """Paths absorbed above never inject, so bailouts vanish for b = x0."""
        cfg = m1_cfg(m1, x0=1.0, q=0.5, upper_barrier=1.0, lower="parisian_reflect",
                     r=2.0)
        est = mc.estimate(cfg, mc.Functional("up_exit"), n_paths=5_000, seed=4)
        assert est.mean == pytest.approx(1.0)


class TestAnalyticCrossChecks:
    N = 200_000

    def z_ok(self, est, target, zmax=3.5):
        se = max(est.std_error, 1e-12)
        return abs(est.mean - target) / se < zmax or abs(est.mean - target) < 1e-4

    def test_two_sided_exit(self, m1, m1_q23):
        cfg = m1_cfg(m1, x0=0.6, q=2.0 / 3.0, upper_barrier=1.5, lower="classical_absorb")
        est = mc.estimate(cfg, mc.Functional("up_exit"), n_paths=self.N, seed=11)
        assert self.z_ok(est, laws.up_exit(m1_q23, 0.6, 1.5, INF))

    def test_severity_absorbed(self, m1, m1_q23):
        cfg = m1_cfg(m1, x0=0.6, q=2.0 / 3.0, upper_barrier=1.5, lower="classical_absorb")
        est = mc.estimate(cfg, mc.Functional("severity", theta=1.0), n_paths=self.N, seed=12)
        assert self.z_ok(est, laws.severity(m1_q23, 0.6, 1.5, 1.0))

    def test_dividends_until_ruin(self, m1):
        from parisian_scale import control as ctl

        ctx = build_scale(m1, 0.5)
        cfg = m1_cfg(m1, x0=0.6, q=0.5, upper_barrier=1.5, upper_mode="reflect",
                     lower="classical_absorb")
        est = mc.estimate(cfg, mc.Functional("dividends"), n_paths=self.N, seed=13)
        assert self.z_ok(est, ctl.Barrier(ctx.W, ctx.dW).value(0.6, 1.5))

    def test_bailouts_to_level(self, m1, m1_q23):
        cfg = m1_cfg(m1, x0=0.6, q=2.0 / 3.0, upper_barrier=1.5, lower="classical_reflect")
        est = mc.estimate(cfg, mc.Functional("up_exit", theta=0.8), n_paths=self.N, seed=14)
        assert self.z_ok(est, laws.up_exit(m1_q23, 0.6, 1.5, 0.8))

    def test_time_in_red(self, m1, m1_q0):
        cfg = m1_cfg(m1, x0=0.5, q=0.0, lower="none", horizon=400.0,
                     upper_barrier=60.0)
        est = mc.estimate(cfg, mc.Functional("time_in_red", red_rate=2.0 / 3.0),
                          n_paths=self.N, seed=15)
        assert self.z_ok(est, laws.time_in_red(m1_q0, 0.5, 2.0 / 3.0))

    def test_parisian_up_exit(self, m1, m1_par):
        cfg = m1_cfg(m1, x0=0.6, q=2.0 / 3.0, upper_barrier=1.5, lower="parisian_absorb",
                     r=1.0 / 3.0)
        est = mc.estimate(cfg, mc.Functional("up_exit"), n_paths=self.N, seed=16)
        assert self.z_ok(est, laws.up_exit(m1_par, 0.6, 1.5, INF))

    def test_parisian_severity(self, m1, m1_par):
        cfg = m1_cfg(m1, x0=0.6, q=2.0 / 3.0, upper_barrier=1.5, lower="parisian_absorb",
                     r=1.0 / 3.0)
        est = mc.estimate(cfg, mc.Functional("severity", theta=1.0), n_paths=self.N, seed=17)
        assert self.z_ok(est, laws.severity(m1_par, 0.6, 1.5, 1.0))

    def test_parisian_dividend_value(self, m1, m1_par):
        from parisian_scale import control as ctl

        cfg = m1_cfg(m1, x0=0.6, q=2.0 / 3.0, upper_barrier=1.5, upper_mode="reflect",
                     lower="parisian_absorb", r=1.0 / 3.0)
        est = mc.estimate(cfg, mc.Functional("dividends"), n_paths=self.N, seed=18)
        assert self.z_ok(est, ctl.parisian_dividends(m1_par, INF).value(0.6, 1.5))

    def test_parisian_bailout_value(self, m1, m1_par):
        from parisian_scale import control as ctl

        cfg = m1_cfg(m1, x0=0.6, q=2.0 / 3.0, upper_barrier=1.5,
                     lower="parisian_reflect", r=1.0 / 3.0)
        est = mc.estimate(cfg, mc.Functional("bailouts"), n_paths=self.N, seed=19)
        assert self.z_ok(est, ctl.parisian_bailouts(m1_par, 0.6, 1.5, INF))

    def test_tail_bound_reported(self, m1):
        cfg = m1_cfg(m1, x0=0.6, q=0.5, upper_barrier=1.5, upper_mode="reflect",
                     lower="classical_absorb")
        est = mc.estimate(cfg, mc.Functional("dividends"), n_paths=2_000, seed=20)
        assert 0.0 < est.tail_bound < 0.1 * est.std_error


class TestTailBound:
    """The horizon cut's bound: c e^{-qT}/q for dividends, lam E[C] e^{-qT}
    (1/q, plus 1/r under Parisian reflection) for injections."""

    @pytest.mark.parametrize("lower,name,k", [
        ("classical_absorb", "dividends", 0.0),
        ("classical_absorb", "bailouts", 0.0),
        ("classical_reflect", "bailouts", 0.0),
        ("parisian_reflect", "bailouts", 0.0),
        ("classical_reflect", "slg", 2.0),
        ("parisian_reflect", "slg", 2.0),
    ])
    def test_formula(self, m1, lower, name, k):
        q, r, x0, b = 0.5, 0.25, 0.6, 1.5
        cfg = m1_cfg(m1, x0=x0, q=q, upper_barrier=b, upper_mode="reflect", lower=lower,
                     r=r if lower.startswith("parisian") else 0.0)
        est = mc.estimate(cfg, mc.Functional(name, k=k), n_paths=500, seed=20)
        assert 0.0 < est.horizon <= mc.default_horizon(q, x0, b)
        disc = math.exp(-q * est.horizon)
        dividends = m1.c * disc / q
        per_claim = m1.lam * m1.mean_claim * disc
        injections = {"classical_reflect": per_claim / q,
                      "parisian_reflect": per_claim * (1 / q + 1 / r)}.get(lower, 0.0)
        expected = {"dividends": dividends, "bailouts": injections,
                    "slg": dividends + k * injections}[name]
        assert est.tail_bound == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_explicit_horizon_has_no_tail(self, m1):
        cfg = m1_cfg(m1, x0=0.6, q=0.5, upper_barrier=1.5, upper_mode="reflect",
                     lower="classical_reflect", horizon=5.0)
        assert mc.estimate(cfg, mc.Functional("slg", k=2.0), n_paths=500).tail_bound == 0.0

    def test_sized_horizon_bit_identical_across_thread_counts(self, m1, monkeypatch):
        cfg = m1_cfg(m1, x0=0.6, q=2.0 / 3.0, upper_barrier=1.5, upper_mode="reflect",
                     lower="parisian_reflect", r=1.0 / 3.0)
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("PARISIAN_SCALE_THREADS", threads)
            est = mc.estimate(cfg, mc.Functional("slg", k=2.0), n_paths=(1 << 17) + 1000, seed=3)
            runs.append((est.mean, est.std_error, est.tail_bound, est.horizon))
        assert runs[0] == runs[1]
        assert runs[0][3] < mc.default_horizon(2.0 / 3.0, 0.6, 1.5)

    def test_cap_below_minus_one(self, m1):
        """A start with x0 + b <= -1 takes the cap 40/q, not log1p's domain error."""
        assert mc.default_horizon(0.5, -2.0, 0.0) == 80.0
        cfg = m1_cfg(m1, x0=-2.0, q=0.5, upper_mode="reflect", lower="classical_reflect")
        est = mc.estimate(cfg, mc.Functional("bailouts"), n_paths=100)
        assert math.isfinite(est.mean) and 0.0 < est.horizon <= 80.0


def _same_state(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


class TestDraws:
    def test_pick_is_choice(self):
        """The inverse-CDF pick draws what rng.choice draws and leaves the same stream."""
        sweep = np.random.default_rng(0)
        for trial in range(3000):
            k = 2 + trial % 6
            p = sweep.random(k) * (sweep.random(k) > 0.3)       # some weights zero
            p[trial % k] += 0.0 if p.any() else 1.0
            p /= p.sum()
            n = int(sweep.integers(1, 64))
            ours, theirs = (np.random.Generator(np.random.Philox(key=[trial, 0]))
                            for _ in range(2))
            assert np.array_equal(mc._pick(ours, n, p), theirs.choice(k, size=n, p=p))
            assert _same_state(ours.bit_generator.state, theirs.bit_generator.state)


class TestReduction:
    def test_chunk_merge_matches_two_pass_variance(self):
        """Values 1e8 + 1e-2 noise: sum v^2/n - mean^2 cancels every digit."""
        v = 1e8 + 1e-2 * np.random.default_rng(3).standard_normal(2 * 65_536 + 3_000)
        chunks = np.split(v, [65_536, 2 * 65_536])
        parts = [mc._chunk_moments(c) for c in chunks]
        var = mc._merge_m2(parts) / v.size
        reference = np.var(v)
        assert abs(var - reference) < 1e-10 * reference
        naive = sum(float((c * c).sum()) for c in chunks) / v.size - (v.sum() / v.size) ** 2
        assert abs(naive - reference) > reference

    def test_constant_values_have_no_spread(self):
        parts = [mc._chunk_moments(np.full(n, 0.1)) for n in (7, 65_536, 3)]
        assert mc._merge_m2(parts) <= 1e-30
