"""Acceptance gate: ten end-to-end criteria covering the full toolkit.

Each test pins one release criterion at its stated tolerance; unit-level
detail lives in the per-module test files.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from parisian_scale import (
    INF,
    Constant,
    Exponential,
    LevyModel,
    build_gerber_shiu,
    build_parisian,
    build_scale,
    laws,
    mc,
)
from parisian_scale import control as ctl
from parisian_scale.model import laplace_exponent, phi


GRID20 = np.linspace(0.0, 3.0, 20)


def test_criterion_1_laplace_transform_identity(m1, m2):
    """int_0^inf e^{-theta x} W_q(x) dx = 1/(kappa(theta) - q), rel 1e-6."""
    cases = [(m1, 0.0), (m1, 2.0 / 3.0), (m2, 1.0)]
    for model, q in cases:
        ctx = build_scale(model, q)
        phi_q = phi(model, q)
        for dtheta in (0.4, 0.8, 1.3, 2.0, 3.0, 5.0):
            theta = phi_q + dtheta
            num, _ = quad(lambda x: math.exp(-theta * x) * ctx.W(x),
                          0.0, 200.0, limit=300)
            k = laplace_exponent(model, theta).real
            assert num == pytest.approx(1.0 / (k - q), rel=1e-6)


def test_criterion_2_closed_form_fixtures(m1, m2, m1_q0, m1_q23, m2_q1, m2_par):
    for x in GRID20:
        x = float(x)
        assert m1_q0.W(x) == pytest.approx(2.0 - math.exp(-x), rel=1e-10)
        assert m1_q23.W(x) == pytest.approx(
            (9.0 / 7.0) * math.exp(x) - (2.0 / 7.0) * math.exp(-4.0 * x / 3.0), rel=1e-10)
        assert m2_q1.W(x) == pytest.approx(math.sinh(x), rel=1e-10, abs=1e-12)
        assert m2_q1.Z0(x) == pytest.approx(math.cosh(x), rel=1e-10)
        assert m2_par.W(x) == pytest.approx(
            (3.0 * math.exp(x) - math.exp(-x)) / 2.0, rel=1e-10)
        assert laws.severity_infinite(m1_q23, x, 0.0) == pytest.approx(
            math.exp(-4.0 * x / 3.0) / 3.0, rel=1e-10)
        assert laws.time_in_red(m1_q0, x, 2.0 / 3.0) == pytest.approx(
            1.0 - 0.25 * math.exp(-x), rel=1e-10)


def test_criterion_3_harmonicity(m1, m1_q23):
    """The generator identity G Z_q(., theta) = q Z_q(., theta) by quadrature."""
    ctx = m1_q23
    lam, c, q = m1.lam, m1.c, ctx.q

    def gen(x, theta):
        z_theta = build_gerber_shiu(ctx, Exponential(theta))
        deriv = z_theta.dmix(x)
        jump, _ = quad(
            lambda z: (z_theta(x - z) - z_theta(x)) * 2.0 * math.exp(-2.0 * z),
            0.0, 80.0, points=[x], limit=300)
        return c * deriv + lam * jump

    for theta in (0.0, 1.2):
        for x in (0.5, 1.0, 2.0):
            lhs = gen(x, theta)
            rhs = q * build_gerber_shiu(ctx, Exponential(theta))(x)
            assert lhs == pytest.approx(rhs, rel=2e-6, abs=2e-6)


def fundamental_identity_residual(ctx, x, b, theta):
    """Residual of Z(x)/Z(b) - W(x)/W(b) - S(x,b)/Z(b); zero by the exit-law algebra."""
    z = ctx.Z(theta)
    zb = z(b)
    return z(x) / zb - ctx.W(x) / ctx.W(b) - laws.severity(ctx, x, b, theta) / zb


def test_criterion_4_fundamental_identity_sweep(m1, m2):
    rng = np.random.default_rng(101)
    models = (m1, m2)
    for _ in range(200):
        model = models[int(rng.integers(2))]
        q = float(rng.uniform(0.05, 2.0))
        ctx = build_scale(model, q)
        b = float(rng.uniform(0.3, 4.0))
        x = float(rng.uniform(0.0, b))
        theta = float(rng.uniform(0.0, 5.0))
        assert abs(fundamental_identity_residual(ctx, x, b, theta)) < 1e-10


def test_criterion_5_parisian_reduces_to_classical(m1, m1_q23):
    """All eight Proposition-1 laws at r = 1e4 vs classical counterparts."""
    q = 2.0 / 3.0
    ctx = m1_q23
    pctx = build_parisian(m1, q, 1e4)
    b, theta, vartheta = 1.5, 1.0, 0.5
    p_over_q = m1.drift / q

    def ell(x):
        return ctx.Zbar(x) + p_over_q

    def close(got, want):
        assert got == pytest.approx(want, rel=1e-2, abs=1e-4)

    for x in (0.0, 0.5, 1.0):
        # 1. up-exit / bailout transform
        close(laws.up_exit(pctx, x, b, INF), laws.up_exit(ctx, x, b, INF))
        close(laws.up_exit(pctx, x, b, theta),
              laws.up_exit(ctx, x, b, theta))
        # 2. severity of ruin
        close(laws.severity(pctx, x, b, theta),
              laws.severity(ctx, x, b, theta))
        # 3. doubly absorbed resolvent density
        for y in (0.3, 0.9):
            classic = ctx.W(x) * ctx.W(b - y) / ctx.W(b) - (ctx.W(x - y) if y < x else 0.0)
            close(laws.parisian_resolvent(pctx, x, 0.0, b, y), classic)
        # 4. dividends-penalty transform
        close(laws.severity(pctx, x, b, theta, vartheta),
              laws.severity(ctx, x, b, theta, vartheta))
        # 5. barrier dividends until ruin
        close(ctl.parisian_dividends(pctx, INF).value(x, b), ctl.Barrier(ctx.W, ctx.dW).value(x, b))
        # 6. bailouts until up-crossing
        z0 = build_gerber_shiu(ctx, Exponential(0.0))
        zx, zb = z0(x), z0(b)
        close(ctl.parisian_bailouts(pctx, x, b, INF), zx * ell(b) / zb - ell(x))
        # 7. doubly reflected dividends
        close(ctl.parisian_dividends(pctx, 0.0).value(x, b), zx / (q * ctx.W(b)))
        # 8. doubly reflected bailouts
        close(ctl.parisian_bailouts(pctx, x, b, 0.0),
              zx * zb / (q * ctx.W(b)) - ell(x))


class TestCriterion6MCOracleEquivalence:
    """Closed forms vs the exact path oracle at one million paths."""

    N = 1_000_000
    Q = 2.0 / 3.0
    R = 1.0 / 3.0
    X, B = 0.6, 1.5

    def check(self, cfg, fn, target, seed):
        est = mc.estimate(cfg, fn, n_paths=self.N, seed=seed)
        assert est.tail_bound < 0.1 * max(est.std_error, 1e-300) or est.tail_bound == 0.0
        assert abs(est.mean - target) < 4.0 * est.std_error

    def cfg(self, m1, **kw):
        kw.setdefault("x0", self.X)
        kw.setdefault("q", self.Q)
        kw.setdefault("upper_barrier", self.B)
        return mc.PathConfig(model=m1, **kw)

    def test_two_sided_exit(self, m1, m1_q23):
        self.check(self.cfg(m1, lower="classical_absorb"), mc.Functional("up_exit"),
                   laws.up_exit(m1_q23, self.X, self.B, INF), seed=61)

    def test_severity_absorbed(self, m1, m1_q23):
        for theta, seed in ((0.0, 62), (1.0, 63)):
            self.check(self.cfg(m1, lower="classical_absorb"),
                       mc.Functional("severity", theta=theta),
                       laws.severity(m1_q23, self.X, self.B, theta), seed)

    def test_severity_reflected(self, m1, m1_q23):
        for theta, seed in ((0.0, 64), (1.0, 65)):
            self.check(self.cfg(m1, lower="classical_absorb", upper_mode="reflect"),
                       mc.Functional("severity", theta=theta),
                       laws.severity(m1_q23, self.X, self.B, theta, 0.0), seed)

    def test_bailouts_to_level(self, m1, m1_q23):
        self.check(self.cfg(m1, lower="classical_reflect"),
                   mc.Functional("up_exit", theta=0.8),
                   laws.up_exit(m1_q23, self.X, self.B, 0.8), seed=66)

    def test_parisian_up_exit(self, m1, m1_par):
        self.check(self.cfg(m1, lower="parisian_absorb", r=self.R),
                   mc.Functional("up_exit"),
                   laws.up_exit(m1_par, self.X, self.B, INF), seed=67)

    def test_parisian_severity(self, m1, m1_par):
        self.check(self.cfg(m1, lower="parisian_absorb", r=self.R),
                   mc.Functional("severity", theta=1.0),
                   laws.severity(m1_par, self.X, self.B, 1.0), seed=68)

    def test_vf_dividends(self, m1, m1_par):
        self.check(self.cfg(m1, lower="parisian_absorb", r=self.R, upper_mode="reflect"),
                   mc.Functional("dividends"),
                   ctl.parisian_dividends(m1_par, INF).value(self.X, self.B), seed=69)

    def test_vs_slg_value(self, m1, m1_par):
        k = 2.0
        self.check(self.cfg(m1, lower="parisian_reflect", r=self.R, upper_mode="reflect"),
                   mc.Functional("slg", k=k),
                   ctl.slg_parisian(m1_par, k).value(self.X, self.B), seed=70)

    def test_time_in_red(self, m1, m1_q0):
        cfg = mc.PathConfig(model=m1, x0=self.X, q=0.0, upper_barrier=60.0,
                            lower="none", horizon=400.0)
        self.check(cfg, mc.Functional("time_in_red", red_rate=2.0 / 3.0),
                   laws.time_in_red(m1_q0, self.X, 2.0 / 3.0), seed=71)


class TestCriterion7EfficiencyThreshold:
    def test_symmetric_value_exact(self, m1_par_sym):
        assert ctl.efficiency_index(m1_par_sym) == pytest.approx(4.0, rel=1e-12)

    def test_slope_sign_flips_at_threshold(self, m1_par_sym):
        h = 1e-6

        def slope(k):
            G = lambda b: ctl.barrier_function("SLG_parisian", m1_par_sym, b, k=k)
            return (G(h) - G(0.0)) / h

        below, above = slope(4.0 - 1e-3), slope(4.0 + 1e-3)
        assert below < -1e-6 and above > 1e-6

    def test_large_r_limit_matches_classical(self, m1):
        for q in (0.3, 0.5, 1.0):
            thr = ctl.efficiency_index(build_parisian(m1, q, 1e4))
            assert thr == pytest.approx(1.0 + q / m1.lam, rel=1e-2)

    def test_monotone_in_q(self, m1):
        ks = [ctl.efficiency_index(build_parisian(m1, float(q), 1.0 / 3.0))
              for q in np.linspace(0.05, 2.0, 20)]
        assert all(np.diff(ks) > 0)

    def test_patience_round_trip(self, m1_par_sym):
        k = 5.0
        extra = ctl.solve_patience(m1_par_sym, k, tol=1e-8)
        back = ctl.efficiency_index(
            build_parisian(m1_par_sym.model, m1_par_sym.q + extra, m1_par_sym.r))
        assert back == pytest.approx(k, rel=1e-7)


class TestCriterion8BarrierOptimizer:
    def test_slg_boundary_grid(self, m1):
        for q in np.linspace(0.2, 2.0, 10):
            q = float(q)
            kc = 1.0 + q / m1.lam
            ctx = build_scale(m1, q)
            for k in np.linspace(1.05, 3.0, 10):
                k = float(k)
                if abs(k - kc) < 5e-3:
                    continue
                G = lambda b: ctl.barrier_function("SLG_classic", ctx, b, k=k)
                sol = ctl.optimize_barrier(G, 12.0)
                assert sol.is_boundary == (k <= kc), (q, k)

    def test_definetti_first_order_condition(self, m1):
        ctx = build_scale(m1, 0.1)
        G = lambda b: ctl.barrier_function("deFinetti_classic", ctx, b, penalty=Constant(0.0))
        sol = ctl.optimize_barrier(G, 8.0, tol=1e-10)
        assert not sol.is_boundary
        h = 1e-4
        fd = (G(sol.b_star + h) - G(sol.b_star - h)) / (2.0 * h)
        assert abs(fd) < 1e-6


def test_criterion_9_resolvent_occupation_identity(m1_par):
    """Integral of the resolvent density vs (1 - up - severity)/q, 1e-8."""
    q = m1_par.q
    rng = np.random.default_rng(202)
    for _ in range(20):
        a = float(rng.uniform(0.0, 0.5))
        b = a + float(rng.uniform(0.5, 2.5))
        x = float(rng.uniform(a, b))
        lhs = laws.parisian_resolvent_integral(m1_par, x, a, b)
        rhs = (1.0
               - laws.up_exit(m1_par, x - a, b - a, INF)
               - laws.severity(m1_par, x - a, b - a, 0.0)) / q
        assert lhs == pytest.approx(rhs, abs=1e-8)


class TestCriterion10Network:
    def make_spec(self):
        subs = (
            ctl.Subsidiary(premium=2.0, lam=1.0, phases=((1.0, 2.0),), retention=0.5),
            ctl.Subsidiary(premium=3.0, lam=1.0, phases=((1.0, 2.0),), retention=0.25),
        )
        return ctl.NetworkSpec(subsidiaries=subs, c0=1.0, q=0.5)

    def test_pathwise_lemma_identity(self):
        spec = self.make_spec()
        direct, lemma, _ = mc.network_paths(spec, u0=1.0, b=2.0, horizon=40.0,
                                            n_paths=10_000, seed=88)
        assert np.abs(direct - lemma).max() < 1e-9 * max(np.abs(direct).max(), 1.0)

    def test_cone_invariance(self):
        spec = self.make_spec()
        _, _, short = mc.network_paths(spec, u0=0.8, b=1.6, horizon=40.0,
                                       n_paths=100_000, seed=89)
        assert short.max() < 1e-9
