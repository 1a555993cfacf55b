import importlib.util
import math
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from test_closed_form_golden import MODELS, mixtures

from parisian_scale import (
    Constant,
    Exponential,
    LevyModel,
    Linear,
    build_gerber_shiu,
    build_parisian,
    build_scale,
    laplace_exponent,
)
from parisian_scale.errors import DomainError, QZero, UnsupportedPenalty
from parisian_scale.scale import z_mix

GRID = [0.0, 0.1, 0.5, 1.0, 1.7, 2.5, 4.0]


def _reference():
    """perfbench/reference.py, the mpmath reference that never calls the library."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestClosedForms:
    def test_m1_w0(self, m1_q0):
        for x in GRID:
            assert m1_q0.W(x) == pytest.approx(2 - math.exp(-x), abs=1e-12)

    def test_m1_w_two_thirds(self, m1_q23):
        for x in GRID:
            exact = (9 / 7) * math.exp(x) - (2 / 7) * math.exp(-4 * x / 3)
            assert m1_q23.W(x) == pytest.approx(exact, rel=1e-12)

    def test_m2_sinh_cosh(self, m2_q1):
        for x in GRID:
            assert m2_q1.W(x) == pytest.approx(math.sinh(x), abs=1e-12)
            assert m2_q1.Z0(x) == pytest.approx(math.cosh(x), rel=1e-12)

    def test_m1_z0_theta1(self, m1_q0):
        z = build_gerber_shiu(m1_q0, Exponential(1.0))
        for x in GRID:
            exact = 4 / 3 - math.exp(-x) / 3
            assert z(x) == pytest.approx(exact, rel=1e-12)

    def test_m2_parisian_w(self, m2_par):
        for x in GRID:
            exact = (3 * math.exp(x) - math.exp(-x)) / 2
            assert m2_par.W(x) == pytest.approx(exact, rel=1e-12)

    def test_m2_scriptS_is_scaled_sinh(self, m2_par):
        # r/(q+r) Zbar_1 = (3/4) sinh(x) since kappa'(0+) = 0
        for x in GRID:
            assert m2_par.S(x) == pytest.approx(0.75 * math.sinh(x), rel=1e-12)


class TestLaplaceIdentity:
    @pytest.mark.parametrize("q", [0.0, 2.0 / 3.0])
    def test_m1(self, m1, q):
        ctx = build_scale(m1, q)
        from parisian_scale.model import phi
        for theta in np.linspace(phi(m1, q) + 0.4, phi(m1, q) + 3.0, 6):
            val, _ = quad(lambda x: math.exp(-theta * x) * ctx.W(x), 0, 80, limit=300)
            expected = 1.0 / (laplace_exponent(m1, theta) - q)
            assert val == pytest.approx(expected, rel=1e-6)

    def test_m2(self, m2, m2_q1):
        for theta in np.linspace(1.4, 4.4, 6):
            val, _ = quad(lambda x: math.exp(-theta * x) * m2_q1.W(x), 0, 80, limit=300)
            assert val == pytest.approx(1.0 / (theta**2 - 1.0), rel=1e-6)


def generator_apply(model, f, x, tol=1e-10):
    """(sigma^2/2) f'' + c f' + lam int (f(x-y) - f(x)) dF(y)."""
    h = 1e-5
    d1 = (f(x + h) - f(x - h)) / (2 * h)
    d2 = (f(x + h) - 2 * f(x) + f(x - h)) / h**2
    out = 0.5 * model.sigma2 * d2 + model.c * d1
    if model.lam > 0:
        def dens(y):
            return sum(p * m * math.exp(-m * y) for p, m in model.phases)
        jump, _ = quad(lambda y: (f(x - y) - f(x)) * dens(y), 0, 60,
                       limit=400, epsabs=tol, epsrel=tol)
        out += model.lam * jump
    return out


class TestHarmonicity:
    @pytest.mark.parametrize("theta", [0.0, 0.7, 2.1])
    def test_z_is_q_harmonic_m1(self, m1, m1_q23, theta):
        q = 2.0 / 3.0
        for x in (0.5, 1.0, 2.0):
            f = build_gerber_shiu(m1_q23, Exponential(theta))
            assert generator_apply(m1, f, x) == pytest.approx(q * f(x), rel=2e-6, abs=2e-6)

    def test_w_is_q_harmonic_inside(self, m1, m1_q23):
        f = lambda y: m1_q23.W(y) if y >= 0 else 0.0
        for x in (1.0, 2.0):
            assert generator_apply(m1, f, x) == pytest.approx((2 / 3) * f(x), rel=2e-6)


class TestZFamily:
    def test_z_exterior_value(self, m1_q23):
        z = build_gerber_shiu(m1_q23, Exponential(1.3))
        for x in (-0.5, -2.0):
            assert z(x) == pytest.approx(math.exp(1.3 * x), rel=1e-14)

    def test_z_via_dickson_hipp_definition(self, m1, m1_q23):
        # Z(x, theta) = e^{theta x} (1 - (kappa(theta)-q) int_0^x e^{-theta y} W(y) dy)
        q, theta, x = 2 / 3, 1.9, 1.4
        tail, _ = quad(lambda y: math.exp(-theta * y) * m1_q23.W(y), 0, x)
        expected = math.exp(theta * x) * (1 - (laplace_exponent(m1, theta) - q) * tail)
        assert z_mix(m1_q23, theta)(x) == pytest.approx(expected, rel=1e-10)

    def test_z_zero_is_one_plus_qwbar(self, m1_q23):
        q = 2 / 3
        for x in GRID:
            assert m1_q23.Z0(x) == pytest.approx(1 + q * m1_q23.Wbar(x), rel=1e-12)

    def test_z1_definition(self, m1_q23):
        # Z1 = Zbar - drift * Wbar
        p = 0.5
        for x in GRID:
            expected = m1_q23.Zbar(x) - p * m1_q23.Wbar(x)
            assert m1_q23.Z1(x) == pytest.approx(expected, rel=1e-12)


def _golden_reference(label):
    """perfbench/reference.py's Parisian context for a golden model, at the current precision."""
    model, q, r = MODELS[label]
    ref = _reference()
    return ref.Parisian(ref.Model.from_dict(model.to_dict()), q, r)


class TestRemovableSingularities:
    """The weights of Z_q(., theta) and Z_{q,r}(., theta) are quotients with removable
    singularities at each root rho of kappa = q and at Phi_{q+r}; from the root slopes they
    stay within 1e-13 of perfbench/reference.py next to and at those points."""

    XS = (0.45, 1.7, 2.5, 6.0)

    def check(self, mix, want):
        for x in self.XS:
            value = want(mp.mpf(x))
            assert abs(mix(x) - value) <= 1e-13 * abs(value), x

    @pytest.mark.parametrize("label", sorted(MODELS))
    def test_next_to_each_nonnegative_root(self, label):
        pctx = build_parisian(*MODELS[label])
        with mp.workdps(60):
            want = _golden_reference(label)
            for rho in [rho for rho in pctx.base.roots if rho >= 0]:
                for k in range(3, 10):
                    theta = rho + 10.0**-k
                    self.check(z_mix(pctx.base, theta), lambda x: want.base.Z(x, mp.mpf(theta)))
                    self.check(pctx.Z(theta), lambda x: want.Z(x, mp.mpf(theta)))

    @pytest.mark.parametrize("label", sorted(MODELS))
    def test_at_and_next_to_phi_qr(self, label):
        pctx = build_parisian(*MODELS[label])
        star = pctx.phi_qr
        with mp.workdps(60):
            want = _golden_reference(label)
            # the reference refuses theta = Phi_{q+r} itself; 1e-20 away it reads the same
            cases = [(star, mp.mpf(star) * (1 + mp.mpf(10) ** -20))]
            cases += [(star * (1 + sign * 10.0**-k),) * 2 for k in range(3, 10) for sign in (-1, 1)]
            for theta, at in cases:
                self.check(z_mix(pctx.base, theta), lambda x: want.base.Z(x, mp.mpf(theta)))
                self.check(pctx.Z(theta), lambda x: want.Z(x, mp.mpf(at)))


class TestParisianFamily:
    @pytest.mark.parametrize("r", [0.0, -1.0, math.inf, math.nan])
    def test_refuses_r_outside_its_domain(self, m1, r):
        with pytest.raises(DomainError):
            build_parisian(m1, 0.5, r)

    def test_blend_at_theta_zero(self, m1_par):
        # Z_{q,r}(x) = (r Z_q(x) + q W_{q,r}(x) kappa-free blend) / (q + r) at theta=0
        q, r = 2 / 3, 1 / 3
        for x in GRID:
            zq = m1_par.base.Z0(x)
            wqr = m1_par.W(x)
            expected = (r * zq + q * wqr) / (q + r)
            assert m1_par.Z(0.0)(x) == pytest.approx(expected, rel=1e-12)

    def test_removable_singularity_continuous(self, m1_par):
        star = m1_par.phi_qr
        x = 1.3
        at = m1_par.Z(star)(x)
        near = m1_par.Z(star + 1e-7)(x)
        assert at == pytest.approx(near, rel=1e-5)

    def test_x_derivative_closed_form(self, m1_par):
        # Z_{q,r}'(x) = q/(q+r) Phi_{q+r} Z_q(x, Phi_{q+r})
        q, r = 2 / 3, 1 / 3
        star = m1_par.phi_qr
        z_star = build_gerber_shiu(m1_par.base, Exponential(star))
        for x in (0.0, 0.9, 2.2):
            expected = q / (q + r) * star * z_star(x)
            assert m1_par.Z(0.0, 1)(x) == pytest.approx(expected, rel=1e-12)

    def test_scriptS_derivatives(self, m1_par):
        q, r = 2 / 3, 1 / 3
        for x in (0.0, 1.0, 2.5):
            assert m1_par.dS(x) == pytest.approx(r / (q + r) * m1_par.base.Z0(x), rel=1e-12)
            assert m1_par.ddS(x) == pytest.approx(r * q / (q + r) * m1_par.base.W(x), rel=1e-12)

    def test_scriptS_at_zero(self, m1_par):
        # S(0) = r/(q+r) kappa'(0+)/q
        assert m1_par.S(0.0) == pytest.approx((1 / 3) * 0.5 / (2 / 3), rel=1e-12)

    def test_scriptS_needs_positive_q(self, m1):
        pctx = build_parisian(m1, 0.0, 1.0)
        for name in ("S", "dS", "ddS"):
            with pytest.raises(QZero):
                getattr(pctx, name)

    def test_large_r_reduces_to_classical(self, m1, m1_q23):
        pctx = build_parisian(m1, 2 / 3, 1e4)
        for x in (0.0, 0.8, 1.9):
            # W_{q,r} ~ (r / Phi_{q+r}) W_q, so ratios converge to W ratios
            ratio = pctx.W(x) / pctx.W(2.5)
            assert ratio == pytest.approx(
                m1_q23.W(x) / m1_q23.W(2.5), rel=2e-3)
            assert pctx.Z(1.2)(x) == pytest.approx(
                build_gerber_shiu(m1_q23, Exponential(1.2))(x), rel=1e-2)


class TestGerberShiu:
    def test_exponential_penalty_is_z(self, m1_q23):
        gs = build_gerber_shiu(m1_q23, Exponential(1.4))
        for x in (0.3, 1.5):
            assert gs(x) == pytest.approx(z_mix(m1_q23, 1.4)(x), rel=1e-12)

    def test_exterior_matches_penalty(self, m1_q23):
        gs = build_gerber_shiu(m1_q23, Linear(2.0, 0.5))
        assert gs(-1.2) == pytest.approx(2.0 * (-1.2) + 0.5)

    def test_linear_assembly(self, m1_q23):
        gs = build_gerber_shiu(m1_q23, Linear(2.0, 0.5))
        for x in (0.0, 0.7, 2.1):
            expected = 2.0 * m1_q23.Z1(x) + 0.5 * m1_q23.Z0(x)
            assert gs(x) == pytest.approx(expected, rel=1e-12)

    def test_constant_zero_vanishes(self, m1_q23):
        gs = build_gerber_shiu(m1_q23, Constant(0.0))
        assert gs(1.3) == 0.0
        assert gs.dmix(1.3) == 0.0

    def test_unknown_penalty_rejected(self, m1_q23):
        with pytest.raises(UnsupportedPenalty):
            build_gerber_shiu(m1_q23, "not a penalty")

    @pytest.mark.parametrize("label", sorted(MODELS))
    def test_boundary_value_is_the_penalty(self, label):
        # S_w(0) = w(0) exactly: the exterior condition holds on x <= 0, 0 included
        model, q, _ = MODELS[label]
        ctx = build_scale(model, q)
        for penalty, w0 in ((Exponential(0.0), 1.0), (Exponential(1.3), 1.0),
                            (Linear(0.7, -0.4), -0.4), (Linear(0.7, 0.0), 0.0),
                            (Constant(1.5), 1.5)):
            gs = build_gerber_shiu(ctx, penalty)
            assert gs(0.0) == w0, penalty
            assert gs(np.array([0.0, 1.0]))[0] == w0, penalty

    @pytest.mark.parametrize("theta", [-0.5, math.nan, 1e200])
    def test_theta_must_be_nonnegative(self, m1_par, theta):
        for make in (lambda: z_mix(m1_par.base, theta),
                     lambda: m1_par.Z(theta),
                     lambda: m1_par.Z(theta, 1),
                     lambda: build_gerber_shiu(m1_par.base, Exponential(theta))):
            with pytest.raises(DomainError):
                make()
        assert m1_par.Z(math.inf) is m1_par.W


class TestOneBasis:
    """Every mixture of a context is a row on the basis its W was built on."""

    @pytest.mark.parametrize("label", ["m1_q0", *sorted(MODELS)])
    def test_mixtures_share_the_basis(self, label):
        model, q, r = MODELS["m1"][0], 0.0, 1.0 / 3.0
        if label in MODELS:
            model, q, r = MODELS[label]
        pctx = build_parisian(model, q, r)
        basis, n = pctx.base.W, len(pctx.base.roots)
        # the roots in root_set order, then 1, x and x^2, a zero root being the 1
        assert basis.rho[:n].tolist() == list(pctx.base.roots)
        powers = [1, 2] if basis.one < n else [0, 1, 2]
        assert basis.k.tolist() == [0] * n + powers
        for name, mix in mixtures(pctx.base, pctx).items():
            assert mix.rho is basis.rho and mix.k is basis.k and mix.one == basis.one, name

    def test_near_zero_root_serves_as_the_one(self, m1):
        """At q = 1e-13 on m1 the root 2e-13 is a term next to an exact 1, and integrates as
        the 1 does.  With a 1/rho weight, Wbar and Zbar would cancel it away."""
        ctx = build_scale(m1, 1e-13)
        assert 0 < ctx.roots[0] < 1e-12 and ctx.W.k.tolist() == [0, 0, 0, 1, 2]
        assert ctx.W.one == 2 and ctx.W.rho[2] == 0.0
        ref = _reference()
        with mp.workdps(ref.BASE_DPS):
            want = ref.Scale(ref.Model(1.0, 0.0, 1.0, [(1.0, 2.0)]), mp.mpf(1e-13))
            for name in ("Wbar", "Zbar", "Z0"):
                for x in (0.5, 3.0, 20.0):
                    value = getattr(want, name)(mp.mpf(x))
                    assert abs(getattr(ctx, name)(x) - value) <= 1e-11 * abs(value), (name, x)

    @pytest.mark.parametrize("label", sorted(MODELS))
    def test_mixtures_are_float64(self, label):
        pctx = build_parisian(*MODELS[label])
        names = {"W", "dW", "ddW", "Wbar", "Z0", "Zbar", "Z1", "Wqr", "dWqr", "z_mix(1.3)",
                 "pZ0(1.3)", "pZ1(0.0)", "pZ2(phi_qr)"}
        mixes = mixtures(pctx.base, pctx)
        assert names | ({"S", "dS", "ddS"} if pctx.q > 0 else set()) <= set(mixes)
        for name, mix in mixes.items():
            assert mix.w.dtype == mix.rho.dtype == np.float64, name

    @pytest.mark.parametrize("label", sorted(MODELS))
    def test_grid_equals_scalar_calls(self, label):
        """A value does not depend on the grid it is evaluated in, to the bit."""
        pctx = build_parisian(*MODELS[label])
        grid = np.linspace(0.0, 6.0, 1001)
        for name, mix in mixtures(pctx.base, pctx).items():
            scalars = [mix(x) for x in grid.tolist()]
            assert all(type(v) is float for v in scalars), name
            assert mix(grid).tobytes() == np.array(scalars).tobytes(), name

    def test_zero_weight_skips_an_overflowing_term(self):
        # q = 0 with negative drift: Phi_0 = 1, and Z = 1, Zbar = x hold no e^{x} weight
        ctx = build_scale(LevyModel(c=0.5, lam=1.0, phases=((1.0, 1.0),)), 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ctx.Z0(800.0) == 1.0
            assert ctx.Zbar(800.0) == 800.0
