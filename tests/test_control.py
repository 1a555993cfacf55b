"""Barrier optimization, efficiency thresholds, and network algebra."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from parisian_scale import Constant, LevyModel, Linear, build_parisian, build_scale
from parisian_scale import control as ctl
from parisian_scale.errors import DomainError, NoSolution, RetentionOutOfRange
from parisian_scale.expmix import ExpMix


def make_slg_G(ctx, k):
    return lambda b: ctl.barrier_function("SLG_classic", ctx, b, k=k)


@pytest.fixture()
def run_child(python_child):
    """Run ``body`` in a child process and return its output, so that a call which
    never returns fails on the timeout instead of stalling the suite."""
    def run(body):
        script = ("from parisian_scale import LevyModel, build_parisian, build_scale, control\n"
                  "from parisian_scale.errors import DomainError\n"
                  "M1 = LevyModel(c=1.0, sigma2=0.0, lam=1.0, phases=((1.0, 2.0),))\n"
                  "try:\n" + "".join(f"    {line}\n" for line in body.splitlines())
                  + "except DomainError:\n    print('refused')\n")
        done = python_child(["-c", script])
        assert done.returncode == 0, done.stderr
        return done.stdout.strip()
    return run


M3 = LevyModel(c=2.0, sigma2=0.5, lam=1.5, phases=((0.3, 1.0), (0.5, 3.0), (0.2, 7.0)))

# b* and G(b*) (float.hex) of solves on [0, 8] at the default grid and tol, recorded
# with the refinement that ran until the bracket was narrower than tol
SOLVES = {
    ("m1", "SLG_classic", None): ("0x0.0p+0", "-0x1.3333333333333p-2"),
    ("m1", "SLG_parisian", None): ("0x1.ba85543843034p-3", "-0x1.7bce7c0fce2e8p+1"),
    ("m1", "deFinetti_classic", Constant(0.0)): ("0x1.0db3555a3d769p+1", "0x1.d334abc99d9d2p+0"),
    ("m1", "deFinetti_classic", Linear(0.5, 0.2)): ("0x1.0f7174fe126cap+1",
                                                    "0x1.98f97504b3468p+0"),
    ("m1", "deFinetti_classic", Constant(-2.0)): ("0x1.4668e425ee724p+1", "0x1.6214c98413151p+1"),
    ("m3", "SLG_classic", None): ("0x1.23f3608ccf6ccp-2", "-0x1.a931c353a1541p-1"),
    ("m3", "SLG_parisian", None): ("0x1.846c655056e2cp-2", "-0x1.a56c7289dc61fp+2"),
    ("m3", "deFinetti_classic", Constant(0.0)): ("0x1.0bd526eb555cfp+2", "0x1.7aeafe1962864p+3"),
    ("m3", "deFinetti_classic", Linear(0.5, 0.2)): ("0x1.0de1784e5f302p+2",
                                                    "0x1.657cb8e41fa88p+3"),
    ("m3", "deFinetti_classic", Constant(-2.0)): ("0x1.1dd661f826879p+2", "0x1.c700c1885bb50p+3"),
}


class TestOptimizer:
    def test_definetti_interior_optimum(self, m1):
        ctx = build_scale(m1, 0.1)
        G = lambda b: ctl.barrier_function("deFinetti_classic", ctx, b, penalty=Constant(0.0))
        sol = ctl.optimize_barrier(G, 8.0)
        assert not sol.is_boundary
        assert sol.b_star == pytest.approx(2.107035, abs=1e-4)
        # the optimum is a minimum of W', so W'' vanishes there
        assert ctx.dW.derivative()(sol.b_star) == pytest.approx(0.0, abs=1e-5)

    def test_boundary_detection(self, m1_q23):
        sol = ctl.optimize_barrier(make_slg_G(m1_q23, 1.2), 6.0)
        assert sol.is_boundary and sol.b_star == 0.0

    def test_rejects_truncated_search(self):
        with pytest.raises(NoSolution):
            ctl.optimize_barrier(lambda b: b, 5.0)

    def test_rejects_unresolvable_grid(self, m1):
        """Past the optimum 2.107, W' overflows: G reads 0 on a 1e300-wide grid and
        NaN on a 1e308-wide one, whose points b_max * i overflow."""
        ctx = build_scale(m1, 0.1)
        G = lambda b: ctl.barrier_function("deFinetti_classic", ctx, b, penalty=Constant(0.0))
        with pytest.raises(NoSolution), pytest.warns(RuntimeWarning, match="overflow"):
            ctl.optimize_barrier(G, 1e300)
        with pytest.raises(DomainError):
            ctl.optimize_barrier(G, 1e308)
        with pytest.raises(NoSolution):
            ctl.optimize_barrier(lambda b: math.nan if b > 1.0 else -b, 5.0)

    def test_hands_G_one_float_per_call(self, m1):
        """Grid points and refinement points alike: one Python float per G call, so a
        solve's G calls count its points."""
        ctx = build_scale(m1, 0.1)
        seen = []

        def G(b):
            seen.append(b)
            return ctl.barrier_function("deFinetti_classic", ctx, b)
        ctl.optimize_barrier(G, 8.0)
        assert len(seen) > 1001 and {type(b) for b in seen} == {float}

    def test_ties_go_to_the_larger_b(self):
        """The last index of the grid maximum, 0.0 and -0.0 tying: the plateau of 0.0 on
        [0, 1) and -0.0 on [1, 2] ends at 2."""
        G = lambda b: (0.0 if b < 1.0 else -0.0) if b <= 2.0 else 2.0 - b
        sol = ctl.optimize_barrier(G, 4.0, n_grid=40)
        assert sol.b_star == pytest.approx(2.0, abs=1e-6) and not sol.is_boundary

    def test_rejects_bad_interval(self):
        with pytest.raises(DomainError):
            ctl.optimize_barrier(lambda b: -b, 0.0)

    @pytest.mark.parametrize("n_grid", [0, -3])
    def test_rejects_empty_grid(self, n_grid):
        with pytest.raises(DomainError):
            ctl.optimize_barrier(lambda b: -b, 1.0, n_grid=n_grid)

    @pytest.mark.parametrize("tol, expected", [
        ("0.0", "refused"), ("-1.0", "refused"), ("float('nan')", "refused"),
        ("1e-300", "0x1.0db35")])
    def test_tolerance_never_hangs(self, tol, expected, run_child):
        """A tol below what the bracket can resolve ends where it stops shrinking."""
        out = run_child(
            "ctx = build_scale(M1, 0.1)\n"
            "G = lambda b: control.barrier_function('deFinetti_classic', ctx, b)\n"
            f"print(control.optimize_barrier(G, 8.0, tol={tol}).b_star.hex())")
        assert out.startswith(expected)

    @pytest.mark.parametrize("key", SOLVES, ids=lambda key: "-".join(map(str, key)))
    def test_default_tol_solves_pinned(self, m1, key):
        label, kind, penalty = key
        model = {"m1": m1, "m3": M3}[label]
        if kind == "SLG_parisian":
            ctx, k = build_parisian(model, 1.0 / 3.0, 1.0 / 3.0), 5.0
        else:
            ctx, k = build_scale(model, 2.0 / 3.0 if kind == "SLG_classic" else 0.1), 1.2
        sol = ctl.optimize_barrier(
            lambda b: ctl.barrier_function(kind, ctx, b, k=k, penalty=penalty), 8.0)
        assert (sol.b_star.hex(), sol.G_at_b_star.hex()) == SOLVES[key]

    def test_slg_boundary_threshold_m1(self, m1):
        """For compound Poisson, b* = 0 exactly when k <= 1 + q/lam."""
        rng = np.random.default_rng(3)
        for _ in range(50):
            q = float(rng.uniform(0.2, 1.5))
            k = float(rng.uniform(1.0, 3.0))
            kc = 1.0 + q / m1.lam
            if abs(k - kc) < 1e-3:
                continue
            ctx = build_scale(m1, q)
            sol = ctl.optimize_barrier(make_slg_G(ctx, k), 10.0)
            assert sol.is_boundary == (k <= kc)

    def test_boundary_agrees_with_initial_slope(self, m1):
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(50):
            q = float(rng.uniform(0.2, 1.5))
            k = float(rng.uniform(1.0, 3.0))
            G = make_slg_G(build_scale(m1, q), k)
            slope = (G(h) - G(0.0)) / h
            if abs(slope) < 1e-6:
                continue
            sol = ctl.optimize_barrier(G, 10.0)
            assert (slope > 0) == (sol.b_star > 0)


def sigma_models(n=300):
    """Seeded models with a Brownian part, each with q and the cost k = 1 + 2.5 q / lambda."""
    rng = np.random.default_rng(1)
    for _ in range(n):
        c, sigma2, lam = rng.uniform(0.5, 3.0), rng.uniform(0.05, 1.0), rng.uniform(0.2, 2.0)
        m = int(rng.integers(1, 4))
        rates, w = rng.uniform(0.5, 8.0, m), rng.uniform(0.2, 1.0, m)
        q = float(rng.uniform(0.1, 1.5))
        yield (LevyModel(c=c, sigma2=sigma2, lam=lam, phases=tuple(zip(w / w.sum(), rates))),
               q, 1.0 + 2.5 * q / lam)


class TestSlgClassicAtZero:
    """W_q(0) = 0 when sigma > 0, though the mixture leaves a residue of either sign there."""

    def test_G_at_zero_is_its_limit(self):
        for model, q, k in sigma_models():
            assert make_slg_G(build_scale(model, q), k)(0.0) == -math.inf

    def test_solves_are_interior(self):
        for model, q, k in sigma_models(40):
            assert ctl.optimize_barrier(make_slg_G(build_scale(model, q), k), 8.0).b_star > 0

    def test_value_at_zero_barrier_is_refused(self):
        row = ctl.slg_classic(build_scale(M3, 0.5), 1.2)
        assert row.G(0.0) == -math.inf
        with pytest.raises(DomainError):
            row.value(0.0, 0.0)


# V(0) and V(0.7) (float.hex) of each row on m1 at b = 0, where W'(0) != 0: b = 0 is the
# optimum of SLG_classic at q = 2/3, k = 1.2 (test_boundary_detection)
ZERO_BARRIER_VALUES = {
    "SLG_classic": ("0x1.3333333333332p-1", "0x1.4ccccccccccccp+0"),
    "W": ("0x1.3333333333332p-1", "0x1.4ccccccccccccp+0"),
    "deFinetti_classic": ("0x1.d1745d1745d15p-1", "0x1.9bed61bed61bep+0"),
    "VF_div": ("0x1.d9b02122c5d6fp-1", "0x1.a00b43c4961eap+0"),
    "VS_div": ("0x1.0f876ccdf6cdap+0", "0x1.c2baa0012a00dp+0"),
    "SLG_parisian": ("0x1.15f619980c432p-1", "0x1.3e2e3fff3954cp+0"),
}


def test_value_at_zero_barrier(m1, m1_q23, m1_par):
    rows = {"SLG_classic": ctl.slg_classic(m1_q23, 1.2), "W": ctl.Barrier(m1_q23.W, m1_q23.dW),
            "deFinetti_classic": ctl.definetti(build_scale(m1, 0.1), Constant(0.0)),
            "VF_div": ctl.parisian_dividends(m1_par, math.inf),
            "VS_div": ctl.parisian_dividends(m1_par, 0.0),
            "SLG_parisian": ctl.slg_parisian(m1_par, 5.0)}
    for name, want in ZERO_BARRIER_VALUES.items():
        got = rows[name].value(np.array([0.0, 0.7]), 0.0)
        assert tuple(float(v).hex() for v in got) == want, name
        assert float(rows[name].value(0.0, 0.0)).hex() == want[0], name


class TestMixturesBuiltOnce:
    """A solve builds each mixture once: the count does not grow with the grid."""

    @pytest.mark.parametrize("kind, k, b_max", [
        ("SLG_classic", 1.2, 6.0), ("SLG_parisian", 5.0, 8.0), ("deFinetti_classic", 0.0, 8.0)])
    def test_build_count_independent_of_grid(self, m1, monkeypatch, kind, k, b_max):
        calls = []
        build = ExpMix.build.__func__
        monkeypatch.setattr(ExpMix, "build",
                            classmethod(lambda cls, terms: calls.append(1) or build(cls, terms)))
        counts = []
        for n_grid in (100, 1000):
            calls.clear()
            if kind == "SLG_parisian":
                ctx = build_parisian(m1, 1.0 / 3.0, 1.0 / 3.0)
            else:
                ctx = build_scale(m1, 0.1 if kind == "deFinetti_classic" else 2.0 / 3.0)
            ctl.optimize_barrier(
                lambda b: ctl.barrier_function(kind, ctx, b, k=k, penalty=Constant(0.0)),
                b_max, n_grid=n_grid)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("kind, k, penalty", [
        ("SLG_classic", 1.2, None), ("SLG_parisian", 5.0, None),
        ("deFinetti_classic", 0.0, Constant(0.0)), ("deFinetti_classic", 0.0, Linear(0.5, 0.2))])
    def test_one_build_per_context(self, build_calls, kind, k, penalty):
        """A solve reads every mixture it needs as a row on the basis W was built on."""
        ctx = build_parisian(M3, 0.5, 2.0) if kind == "SLG_parisian" else build_scale(M3, 0.5)
        ctl.optimize_barrier(
            lambda b: ctl.barrier_function(kind, ctx, b, k=k, penalty=penalty), 8.0, n_grid=200)
        assert len(build_calls) == 1


# the seven dividend objectives as Barrier rows on (m1 at q = 0.1, m1_par_sym)
DIVIDEND_ROWS = {
    "vf_dividends_classic": lambda c, p: ctl.Barrier(c.W, c.dW),
    "value_definetti": lambda c, p: ctl.definetti(c, Constant(0.2)),
    "value_slg_classic": lambda c, p: ctl.slg_classic(c, 2.0),
    "VF_div": lambda c, p: ctl.parisian_dividends(p, math.inf),
    "VS_div": lambda c, p: ctl.parisian_dividends(p, 0.0),
    "VS_div_theta": lambda c, p: ctl.parisian_dividends(p, 1.3),
    "slg_parisian": lambda c, p: ctl.slg_parisian(p, 2.0),
}


class TestValues:
    def test_definetti_zero_penalty_is_dividends(self, m1):
        ctx = build_scale(m1, 0.1)
        for x, b in ((0.0, 1.5), (0.7, 1.5), (1.5, 1.5)):
            assert ctl.definetti(ctx, Constant(0.0)).value(x, b) == pytest.approx(
                ctl.Barrier(ctx.W, ctx.dW).value(x, b), rel=1e-12)

    @pytest.mark.parametrize("name", DIVIDEND_ROWS)
    def test_lump_above_barrier(self, m1, m1_par_sym, name):
        row = DIVIDEND_ROWS[name](build_scale(m1, 0.1), m1_par_sym)
        assert row.value(2.3, 1.5) == pytest.approx(row.value(1.5, 1.5) + 0.8)

    @pytest.mark.parametrize("name", DIVIDEND_ROWS)
    def test_array_across_barrier(self, m1, m1_par_sym, name):
        row = DIVIDEND_ROWS[name](build_scale(m1, 0.1), m1_par_sym)
        xs = np.linspace(0.0, 3.0, 13)
        assert row.value(xs, 1.5).tolist() == [row.value(float(x), 1.5) for x in xs]

    def test_slg_value_peaks_at_optimizer(self, m1_q23):
        k = 2.5
        sol = ctl.optimize_barrier(make_slg_G(m1_q23, k), 8.0)
        for x in (0.0, 0.2, 0.4):
            best = ctl.slg_classic(m1_q23, k).value(x, max(sol.b_star, x))
            for b in np.linspace(max(x, 0.05), 4.0, 60):
                assert ctl.slg_classic(m1_q23, k).value(x, float(b)) <= best + 1e-9

    def test_hjb_variational_inequality(self, m1):
        """The de Finetti value solves max(GV - qV, 1 - V') = 0."""
        q = 0.1
        ctx = build_scale(m1, q)
        sol = ctl.optimize_barrier(
            lambda b: ctl.barrier_function("deFinetti_classic", ctx, b, penalty=Constant(0.0)),
            8.0)
        bstar = sol.b_star
        wp_b = ctx.dW(bstar)
        v_b = ctx.W(bstar) / wp_b

        def V(y):
            if y < 0:
                return 0.0
            if y <= bstar:
                return ctx.W(y) / wp_b
            return y - bstar + v_b

        def Vp(y):
            return ctx.dW(y) / wp_b if y <= bstar else 1.0

        def gen_minus_q(y):
            jump, _ = quad(lambda z: (V(y - z) - V(y)) * 2.0 * math.exp(-2.0 * z),
                           0.0, 60.0, points=[y], limit=200)
            return ctx.model.c * Vp(y) + ctx.model.lam * jump - q * V(y)

        for y in (0.3, 1.0, 1.8):
            assert abs(min(-gen_minus_q(y), Vp(y) - 1.0)) < 1e-4
        for y in (bstar + 0.3, bstar + 1.0, bstar + 2.0):
            assert Vp(y) - 1.0 >= -1e-6
            assert gen_minus_q(y) <= 1e-6

    def test_parisian_slg_assembles_from_parts(self, m1_par_sym):
        k, b = 2.0, 1.4
        for x in (0.0, 0.6, 1.4):
            parts = (ctl.parisian_dividends(m1_par_sym, 0.0).value(x, b)
                     - k * ctl.parisian_bailouts(m1_par_sym, x, b, 0.0))
            assert ctl.slg_parisian(m1_par_sym, k).value(x, b) == pytest.approx(
                parts, rel=1e-12)


class TestBarrierRow:
    def test_built_once_per_context(self, m1, monkeypatch):
        made = []
        row = ctl.slg_classic
        monkeypatch.setattr(ctl, "slg_classic", lambda ctx, k: made.append(k) or row(ctx, k))
        ctx = build_scale(m1, 0.5)
        got = [ctl.barrier_function("SLG_classic", ctx, b, k=1.5) for b in (0.5, 1.0, 0.5)]
        assert made == [1.5]
        assert got == [row(build_scale(m1, 0.5), 1.5).G(b) for b in (0.5, 1.0, 0.5)]
        ctl.barrier_function("SLG_classic", ctx, 0.5, k=2.0)
        assert made == [1.5, 2.0]


class TestEfficiency:
    def test_symmetric_fixture_threshold(self, m1_par_sym):
        assert ctl.efficiency_index(m1_par_sym) == pytest.approx(4.0, rel=1e-12)
        assert 3.0 <= ctl.efficiency_index(m1_par_sym)
        assert not 5.0 <= ctl.efficiency_index(m1_par_sym)

    def test_threshold_increasing_in_q(self, m1):
        r = 1.0 / 3.0
        qs = np.linspace(0.05, 2.0, 20)
        ks = [ctl.efficiency_index(build_parisian(m1, float(q), r)) for q in qs]
        assert all(np.diff(ks) > 0)

    def test_threshold_limit_is_one(self, m1):
        k = ctl.efficiency_index(build_parisian(m1, 1e-9, 1.0 / 3.0))
        assert k == pytest.approx(1.0, abs=1e-6)

    def test_patience_needs_positive_q(self, run_child):
        body = "print(control.solve_patience(build_parisian(M1, 0.0, 1.0), 50.0))"
        assert run_child(body) == "refused"

    def test_patience_zero_when_already_efficient(self, m1_par_sym):
        assert ctl.solve_patience(m1_par_sym, 3.0) == 0.0

    @pytest.mark.parametrize("k", [math.inf, 1e40])
    def test_patience_past_the_threshold_digits_is_refused(self, m1, k):
        """k = 1e40 needs q' near 1e20, past the bracket's cap of 2^60 max(q, 1)."""
        with pytest.raises(NoSolution):
            ctl.solve_patience(build_parisian(m1, 0.5, 1.0), k)

    def test_patience_for_a_cost_past_the_old_cancellation(self, m1, mp_threshold):
        """At q' = 3.2e16 the difference phi - (q+q'+r)/c cancels to 0 in floats."""
        extra = ctl.solve_patience(build_parisian(m1, 0.5, 1.0), 1e33)
        assert extra == pytest.approx(3.162e16, rel=1e-3)
        assert mp_threshold(m1, 0.5 + extra, 1.0) == pytest.approx(1e33, rel=1e-7)

    def test_threshold_at_a_huge_r(self, m1, mp_threshold):
        k = ctl.efficiency_index(build_parisian(m1, 0.5, 1e16))
        assert k == pytest.approx(1.5, rel=1e-15, abs=0)
        assert k == pytest.approx(mp_threshold(m1, 0.5, 1e16), rel=1e-15, abs=0)

    def test_threshold_without_sigma_matches_mpmath(self, mp_threshold):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            model = LevyModel(c=float(rng.uniform(0.5, 3.0)), lam=float(rng.uniform(0.1, 2.0)),
                              phases=tuple(zip(rng.dirichlet(np.ones(n)).tolist(),
                                               rng.uniform(0.2, 10.0, n).tolist())))
            q, r = float(rng.uniform(0.05, 2.0)), float(10 ** rng.uniform(-2, 3))
            got = ctl.efficiency_index(build_parisian(model, q, r))
            # phi - r/c over phi - (q + r)/c, differences in floats, is off by up to 2.3e-13 here
            assert got == pytest.approx(mp_threshold(model, q, r), rel=2e-15, abs=0), (model, q, r)

    @pytest.mark.parametrize("q,r", [(0.5, 0.25), (1.0, 3.0), (0.05, 40.0)])
    def test_threshold_with_sigma_matches_mpmath(self, m2, mp_threshold, q, r):
        """With a Brownian part W_{q,r}(0) = 0, and the threshold is 1 + q/r."""
        for model in (m2, M3):
            got = ctl.efficiency_index(build_parisian(model, q, r))
            assert got == pytest.approx(mp_threshold(model, q, r), rel=1e-15, abs=0), model

    def test_infinite_cost_efficient_at_an_infinite_threshold(self):
        # without claims phi_{q+r} = (q+r)/c: the denominator is 0, and no cost is too high
        pctx = build_parisian(LevyModel(c=1.0), 0.5, 1.0)
        assert ctl.efficiency_index(pctx) == math.inf
        assert ctl.solve_patience(pctx, math.inf) == 0.0

    @pytest.mark.parametrize("q", [1e-19, 1e-300])
    def test_patience_at_a_tiny_q(self, m1, q):
        """The bracket doubles up from q to a patience near 0.9, far past 2^60 q."""
        want = ctl.solve_patience(build_parisian(m1, 1e-17, 1.0), 5.0)
        got = ctl.solve_patience(build_parisian(m1, q, 1.0), 5.0)
        assert want == pytest.approx(0.89897949, rel=1e-8)
        assert got == pytest.approx(want, rel=1e-8)

    def test_patience_at_a_tiny_q_brackets_in_few_solves(self, m1, monkeypatch):
        """The bracket starts at 2^-40, not at q = 1e-300 and ~1000 doublings below it."""
        calls = []
        threshold = ctl._threshold
        monkeypatch.setattr(ctl, "_threshold",
                            lambda *a: calls.append(a) or threshold(*a))
        ctl.solve_patience(build_parisian(m1, 1e-300, 1.0), 5.0)
        assert 0 < len(calls) <= 100

    def test_patience_restores_threshold(self, m1_par_sym):
        k = 5.0
        extra = ctl.solve_patience(m1_par_sym, k)
        assert extra > 0
        model, q, r = m1_par_sym.model, m1_par_sym.q, m1_par_sym.r
        restored = ctl.efficiency_index(build_parisian(model, q + extra, r))
        assert restored == pytest.approx(k, rel=1e-7)


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
def test_non_finite_cost_is_refused(m1, k):
    """Not a NaN row, nor a b* at b_max with G = -inf reported as an optimum."""
    ctx = build_scale(m1, 0.5)
    with pytest.raises(DomainError):
        ctl.slg_classic(ctx, k)
    with pytest.raises(DomainError):
        ctl.slg_parisian(build_parisian(m1, 0.5, 1.0), k)
    with pytest.raises(DomainError):
        ctl.optimize_barrier(make_slg_G(ctx, k), 8.0)
    with pytest.raises(DomainError):
        ctl.definetti(ctx, Linear(k, 0.2))
    with pytest.raises(DomainError):
        Constant(k)


class TestNetwork:
    def make_spec(self, premiums, alphas, c0, q=0.5):
        subs = tuple(
            ctl.Subsidiary(premium=c, lam=1.0, phases=((1.0, 2.0),), retention=a)
            for c, a in zip(premiums, alphas)
        )
        return ctl.NetworkSpec(subsidiaries=subs, c0=c0, q=q)

    def test_not_cheap_example(self):
        spec = self.make_spec((3.0, 2.0), (1.0 / 3.0, 0.5), c0=10.0)
        assert not spec.cheap

    def test_cheap_example_constants(self):
        spec = self.make_spec((2.0, 3.0), (0.5, 0.5), c0=1.0)
        assert spec.cheap
        assert spec.gamma == pytest.approx(2.0)
        assert spec.c_tilde == pytest.approx(10.0)

    def test_retention_validation(self):
        with pytest.raises(RetentionOutOfRange):
            self.make_spec((2.0,), (1.0,), c0=1.0)
        with pytest.raises(RetentionOutOfRange):
            self.make_spec((2.0,), (0.0,), c0=1.0)
