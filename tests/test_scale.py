import math
import warnings

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
    eval_parisian_Z,
    eval_scriptS,
    eval_W,
    eval_Wbar,
    eval_Z,
    eval_Z0_family,
    laplace_exponent,
)
from parisian_scale.errors import QZero, UnsupportedPenalty

GRID = [0.0, 0.1, 0.5, 1.0, 1.7, 2.5, 4.0]


class TestClosedForms:
    def test_m1_w0(self, m1_q0):
        for x in GRID:
            assert eval_W(m1_q0, x) == pytest.approx(2 - math.exp(-x), abs=1e-12)

    def test_m1_w_two_thirds(self, m1_q23):
        for x in GRID:
            exact = (9 / 7) * math.exp(x) - (2 / 7) * math.exp(-4 * x / 3)
            assert eval_W(m1_q23, x) == pytest.approx(exact, rel=1e-12)

    def test_m2_sinh_cosh(self, m2_q1):
        for x in GRID:
            assert eval_W(m2_q1, x) == pytest.approx(math.sinh(x), abs=1e-12)
            assert eval_Z0_family(m2_q1, x, "Z") == pytest.approx(math.cosh(x), rel=1e-12)

    def test_m1_z0_theta1(self, m1_q0):
        for x in GRID:
            exact = 4 / 3 - math.exp(-x) / 3
            assert eval_Z(m1_q0, x, 1.0) == pytest.approx(exact, rel=1e-12)

    def test_m2_parisian_w(self, m2_par):
        for x in GRID:
            exact = (3 * math.exp(x) - math.exp(-x)) / 2
            assert eval_parisian_Z(m2_par, x, math.inf) == pytest.approx(exact, rel=1e-12)

    def test_m2_scriptS_is_scaled_sinh(self, m2_par):
        # r/(q+r) Zbar_1 = (3/4) sinh(x) since kappa'(0+) = 0
        for x in GRID:
            assert eval_scriptS(m2_par, x) == pytest.approx(0.75 * math.sinh(x), rel=1e-12)


class TestLaplaceIdentity:
    @pytest.mark.parametrize("q", [0.0, 2.0 / 3.0])
    def test_m1(self, m1, q):
        ctx = build_scale(m1, q)
        from parisian_scale.model import phi
        for theta in np.linspace(phi(m1, q) + 0.4, phi(m1, q) + 3.0, 6):
            val, _ = quad(lambda x: math.exp(-theta * x) * eval_W(ctx, x), 0, 80, limit=300)
            expected = 1.0 / (laplace_exponent(m1, theta) - q)
            assert val == pytest.approx(expected, rel=1e-6)

    def test_m2(self, m2, m2_q1):
        for theta in np.linspace(1.4, 4.4, 6):
            val, _ = quad(lambda x: math.exp(-theta * x) * eval_W(m2_q1, x), 0, 80, limit=300)
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
            f = lambda y: eval_Z(m1_q23, y, theta)
            assert generator_apply(m1, f, x) == pytest.approx(q * f(x), rel=2e-6, abs=2e-6)

    def test_w_is_q_harmonic_inside(self, m1, m1_q23):
        f = lambda y: eval_W(m1_q23, y) if y >= 0 else 0.0
        for x in (1.0, 2.0):
            assert generator_apply(m1, f, x) == pytest.approx((2 / 3) * f(x), rel=2e-6)


class TestZFamily:
    def test_z_exterior_value(self, m1_q23):
        for x in (-0.5, -2.0):
            assert eval_Z(m1_q23, x, 1.3) == pytest.approx(math.exp(1.3 * x), rel=1e-14)

    def test_z_via_dickson_hipp_definition(self, m1, m1_q23):
        # Z(x, theta) = e^{theta x} (1 - (kappa(theta)-q) int_0^x e^{-theta y} W(y) dy)
        q, theta, x = 2 / 3, 1.9, 1.4
        tail, _ = quad(lambda y: math.exp(-theta * y) * eval_W(m1_q23, y), 0, x)
        expected = math.exp(theta * x) * (1 - (laplace_exponent(m1, theta) - q) * tail)
        assert eval_Z(m1_q23, x, theta) == pytest.approx(expected, rel=1e-10)

    def test_z_zero_is_one_plus_qwbar(self, m1_q23):
        q = 2 / 3
        for x in GRID:
            assert eval_Z0_family(m1_q23, x, "Z") == pytest.approx(
                1 + q * eval_Wbar(m1_q23, x), rel=1e-12)

    def test_z1_definition(self, m1_q23):
        # Z1 = Zbar - drift * Wbar
        p = 0.5
        for x in GRID:
            expected = eval_Z0_family(m1_q23, x, "Zbar") - p * eval_Wbar(m1_q23, x)
            assert eval_Z0_family(m1_q23, x, "Z1") == pytest.approx(expected, rel=1e-12)

    def test_theta_derivative_matches_fd(self, m1_q23):
        h = 1e-6
        for theta in (0.4, 1.6):
            for x in (0.5, 2.0):
                fd = (eval_Z(m1_q23, x, theta + h) - eval_Z(m1_q23, x, theta - h)) / (2 * h)
                assert eval_Z(m1_q23, x, theta, dtheta=1) == pytest.approx(fd, rel=1e-7)


class TestParisianFamily:
    def test_blend_at_theta_zero(self, m1_par):
        # Z_{q,r}(x) = (r Z_q(x) + q W_{q,r}(x) kappa-free blend) / (q + r) at theta=0
        q, r = 2 / 3, 1 / 3
        for x in GRID:
            zq = eval_Z0_family(m1_par.base, x, "Z")
            wqr = eval_parisian_Z(m1_par, x, math.inf)
            expected = (r * zq + q * wqr) / (q + r)
            assert eval_parisian_Z(m1_par, x, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_removable_singularity_continuous(self, m1_par):
        star = m1_par.phi_qr
        x = 1.3
        at = eval_parisian_Z(m1_par, x, star)
        near = eval_parisian_Z(m1_par, x, star + 1e-7)
        assert at == pytest.approx(near, rel=1e-5)

    def test_x_derivative_closed_form(self, m1_par):
        # Z_{q,r}'(x) = q/(q+r) Phi_{q+r} Z_q(x, Phi_{q+r})
        q, r = 2 / 3, 1 / 3
        star = m1_par.phi_qr
        for x in (0.0, 0.9, 2.2):
            expected = q / (q + r) * star * eval_Z(m1_par.base, x, star)
            assert eval_parisian_Z(m1_par, x, 0.0, deriv_x=1) == pytest.approx(expected, rel=1e-12)

    def test_scriptS_derivatives(self, m1_par):
        q, r = 2 / 3, 1 / 3
        for x in (0.0, 1.0, 2.5):
            assert eval_scriptS(m1_par, x, 1) == pytest.approx(
                r / (q + r) * eval_Z0_family(m1_par.base, x, "Z"), rel=1e-12)
            assert eval_scriptS(m1_par, x, 2) == pytest.approx(
                r * q / (q + r) * eval_W(m1_par.base, x), rel=1e-12)

    def test_scriptS_at_zero(self, m1_par):
        # S(0) = r/(q+r) kappa'(0+)/q
        assert eval_scriptS(m1_par, 0.0) == pytest.approx((1 / 3) * 0.5 / (2 / 3), rel=1e-12)

    def test_scriptS_needs_positive_q(self, m1):
        pctx = build_parisian(m1, 0.0, 1.0)
        with pytest.raises(QZero):
            eval_scriptS(pctx, 1.0)

    def test_large_r_reduces_to_classical(self, m1, m1_q23):
        pctx = build_parisian(m1, 2 / 3, 1e4)
        for x in (0.0, 0.8, 1.9):
            # W_{q,r} ~ (r / Phi_{q+r}) W_q, so ratios converge to W ratios
            ratio = eval_parisian_Z(pctx, x, math.inf) / eval_parisian_Z(pctx, 2.5, math.inf)
            assert ratio == pytest.approx(
                eval_W(m1_q23, x) / eval_W(m1_q23, 2.5), rel=2e-3)
            assert eval_parisian_Z(pctx, x, 1.2) == pytest.approx(
                eval_Z(m1_q23, x, 1.2), rel=1e-2)


class TestGerberShiu:
    def test_exponential_penalty_is_z(self, m1_q23):
        gs = build_gerber_shiu(m1_q23, Exponential(1.4))
        for x in (0.3, 1.5):
            assert gs(x) == pytest.approx(eval_Z(m1_q23, x, 1.4), rel=1e-12)

    def test_exterior_matches_penalty(self, m1_q23):
        gs = build_gerber_shiu(m1_q23, Linear(2.0, 0.5))
        assert gs(-1.2) == pytest.approx(2.0 * (-1.2) + 0.5)

    def test_linear_assembly(self, m1_q23):
        gs = build_gerber_shiu(m1_q23, Linear(2.0, 0.5))
        for x in (0.0, 0.7, 2.1):
            expected = 2.0 * eval_Z0_family(m1_q23, x, "Z1") \
                + 0.5 * eval_Z0_family(m1_q23, x, "Z")
            assert gs(x) == pytest.approx(expected, rel=1e-12)

    def test_constant_zero_vanishes(self, m1_q23):
        gs = build_gerber_shiu(m1_q23, Constant(0.0))
        assert gs(1.3) == 0.0
        assert gs.deriv(1.3) == 0.0

    def test_unknown_penalty_rejected(self, m1_q23):
        with pytest.raises(UnsupportedPenalty):
            build_gerber_shiu(m1_q23, "not a penalty")


class TestOneBasis:
    """Every mixture of a context is a row on the basis its W was built on."""

    @pytest.mark.parametrize("label", ["m1_q0", *sorted(MODELS)])
    def test_mixtures_share_the_basis(self, label):
        model, q, r = MODELS["m1"][0], 0.0, 1.0 / 3.0
        if label in MODELS:
            model, q, r = MODELS[label]
        pctx = build_parisian(model, q, r)
        basis = pctx.base.W
        assert basis.rho.size <= len(pctx.base.roots) + 3
        for name, mix in mixtures(pctx.base, pctx).items():
            assert mix.rho is basis.rho and mix.k is basis.k, name

    def test_zero_weight_skips_an_overflowing_term(self):
        # q = 0 with negative drift: Phi_0 = 1, and Z = 1, Zbar = x hold no e^{x} weight
        ctx = build_scale(LevyModel(c=0.5, lam=1.0, phases=((1.0, 1.0),)), 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert eval_Z0_family(ctx, 800.0, "Z") == 1.0
            assert eval_Z0_family(ctx, 800.0, "Zbar") == 800.0
