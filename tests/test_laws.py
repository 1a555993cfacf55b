"""Law-level checks: identities, bounds, limits, and closed-form fixtures."""

import math
import sys
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

import parisian_scale
from parisian_scale import (
    Exponential,
    INF,
    LevyModel,
    build_gerber_shiu,
    build_parisian,
    build_scale,
    laplace_exponent,
    laws,
    table,
)
from parisian_scale.errors import DomainError, NonpositiveDrift, QZero
from test_acceptance import fundamental_identity_residual
from test_closed_form_golden import MODELS
from test_scale import _reference


def gs_exit(ctx, x, b, penalty, vartheta=INF):
    """The classical exit law of a penalty, as the laws module writes it with ``exit_law``."""
    gs = build_gerber_shiu(ctx, penalty)
    return laws.exit_law(gs, ctx.W, x, b, vartheta, gs.dmix, ctx.dW)


def test_every_exported_law_has_a_row(monkeypatch, m1_q0, m1_q23, m1_par):
    """Each law the package exports is reached from a row of table.LAWS, except the resolvent
    density, which ROADMAP item 2 rewrites."""
    exported = {name for name in parisian_scale.__all__
                if getattr(getattr(parisian_scale, name), "__module__", None) == laws.__name__}
    called = set()
    for name in exported:
        def wrapper(*args, _name=name, _law=getattr(laws, name), **kwargs):
            called.add(_name)
            return _law(*args, **kwargs)
        monkeypatch.setattr(laws, name, wrapper)
    params = SimpleNamespace(b=2.5, theta=1.3, vartheta=0.4, r=m1_par.r, k=0.0, K=0.0)
    for name, row in table.LAWS.items():
        row.column(m1_q0 if name == "time_in_red" else m1_q23, m1_par, np.linspace(0, 2.5, 4),
                   params)
    assert "severity" in called
    assert exported - called == {"parisian_resolvent"}


def test_every_row_calls_the_exit_kernel(monkeypatch, m1_q0, m1_q23, m1_par):
    """Each law and objective of the table is a call of laws.exit_law, except time_in_red."""
    kernel, calls = laws.exit_law, []

    def wrapper(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)
    for module in [m for name, m in sys.modules.items() if name.startswith("parisian_scale")]:
        if getattr(module, "exit_law", None) is kernel:
            monkeypatch.setattr(module, "exit_law", wrapper)
    params = SimpleNamespace(b=2.5, theta=1.3, vartheta=0.4, r=m1_par.r, k=1.7, K=0.6)
    missed = []
    for name, row in {**table.LAWS, **table.OBJECTIVES}.items():
        calls.clear()
        row.column(m1_q0 if name == "time_in_red" else m1_q23, m1_par, np.linspace(0, 2.5, 4),
                   params)
        if not calls:
            missed.append(name)
    assert missed == ["time_in_red"]


@pytest.mark.parametrize("label", sorted(MODELS))
def test_laws_at_the_barrier_are_exact(label):
    """At x = b the absorbed laws read exactly +0.0 and the up-crossings exactly 1.0, over a
    seeded sweep of b at q = 0.5, r = 1 (the resolvent integral read down to -7.1e-15 when it
    formed W(x) Wbar(b) first)."""
    pctx = build_parisian(MODELS[label][0], 0.5, 1.0)
    rng = np.random.default_rng(26)
    absorbed = ("severity_absorbed", "parisian_severity", "VF_bail",
                "parisian_resolvent_integral")
    up = ("two_sided", "bailouts_to_level", "parisian_up_exit")
    rows = {**table.LAWS, **table.OBJECTIVES}
    for b in rng.uniform(0.1, 5.0, 1000):
        params = SimpleNamespace(b=float(b), theta=float(rng.uniform(0.0, 3.0)), vartheta=INF,
                                 r=1.0, k=0.0, K=0.0)
        for name in absorbed + up:
            got = rows[name].column(pctx.base, pctx, float(b), params)
            assert got.hex() == (0.0 if name in absorbed else 1.0).hex(), (name, b, got)
        assert laws.up_exit(pctx, float(b), float(b), INF) == 1.0


class TestFundamentalIdentity:
    def test_residual_vanishes_on_sweep(self, m1_q23, m2_q1):
        rng = np.random.default_rng(7)
        for ctx in (m1_q23, m2_q1):
            for _ in range(100):
                b = float(rng.uniform(0.3, 4.0))
                x = float(rng.uniform(0.0, b))
                theta = float(rng.uniform(0.0, 5.0))
                res = fundamental_identity_residual(ctx, x, b, theta)
                assert abs(res) < 1e-10

    def test_trivial_endpoints(self, m1_q23):
        b = 1.7
        assert laws.up_exit(m1_q23, b, b, INF) == pytest.approx(1.0)
        assert laws.severity(m1_q23, b, b, 0.8) == pytest.approx(0.0, abs=1e-14)
        assert laws.up_exit(m1_q23, b, b, 0.8) == pytest.approx(1.0)


def test_severity_infinite_at_zero_q_and_drift_is_refused(m1):
    """q = 0 and a nonnegative drift put Phi_q at 0, where the law is a limit."""
    with pytest.raises(QZero):
        laws.severity_infinite(build_scale(m1, 0.0), 0.5, 1.0)


def test_severity_infinite_next_to_phi_q(m1):
    """(kappa(theta) - q)/(theta - Phi_q) cancels next to Phi_q; its root slope does not."""
    ctx = build_scale(m1, 2.0 / 3.0)
    ref = _reference()
    with mp.workdps(50):
        sc = ref.Scale(ref.Model.from_dict(m1.to_dict()), ctx.q)
        for d in (-1e-8, -1e-10, 1e-10, 1e-8):
            theta = ctx.phi_q + d
            for x in (0.5, 2.0):
                want = ref.law("severity_infinite", sc, None, x, 0.0, theta, 0.0)
                got = laws.severity_infinite(ctx, x, theta)
                assert abs(got - want) <= 1e-12 * abs(want), (d, x)


class TestArrayInput:
    """A law on an array of x equals its scalar calls, bit for bit."""

    @pytest.mark.parametrize("law", [
        lambda c, p, x: build_gerber_shiu(c, Exponential(1.3)).dmix(x),
        lambda c, p, x: gs_exit(c, x, 1.8, Exponential(1.3)),
        lambda c, p, x: gs_exit(c, x, 1.8, Exponential(1.3), 0.0),
        lambda c, p, x: fundamental_identity_residual(c, x, 1.8, 0.7),
        lambda c, p, x: laws.parisian_resolvent(p, x, 0.0, 1.8, 0.9),
    ])
    def test_array_equals_scalar_calls(self, m1_q23, m1_par, law):
        xs = np.linspace(0.0, 1.8, 11)
        assert law(m1_q23, m1_par, xs).tolist() == [law(m1_q23, m1_par, float(x)) for x in xs]


class TestBoundsAndMonotonicity:
    def test_transforms_live_in_unit_interval(self, m1_q23, m2_q1, m1_par, m2_par):
        rng = np.random.default_rng(11)
        for _ in range(200):
            b = float(rng.uniform(0.2, 3.0))
            x = float(rng.uniform(0.0, b))
            theta = float(rng.uniform(0.0, 4.0))
            for ctx in (m1_q23, m2_q1):
                for val in (
                    laws.up_exit(ctx, x, b, INF),
                    laws.severity(ctx, x, b, theta),
                    laws.severity(ctx, x, b, theta, 0.0),
                    laws.severity_infinite(ctx, x, theta),
                    laws.up_exit(ctx, x, b, theta),
                ):
                    assert -1e-12 <= val <= 1.0 + 1e-12
            for pctx in (m1_par, m2_par):
                assert -1e-12 <= laws.up_exit(pctx, x, b, theta) <= 1 + 1e-12
                assert -1e-12 <= laws.severity(pctx, x, b, theta) <= 1 + 1e-12

    def test_up_exit_increases_in_x(self, m1_q23, m1_par):
        b = 2.0
        xs = np.linspace(0.0, b, 40)
        classic = [laws.up_exit(m1_q23, float(x), b, INF) for x in xs]
        parisian = [laws.up_exit(m1_par, float(x), b, INF) for x in xs]
        assert all(np.diff(classic) > 0)
        assert all(np.diff(parisian) > 0)

    def test_severity_decreases_in_x(self, m1_q23):
        xs = np.linspace(0.0, 2.0, 30)
        vals = [laws.severity(m1_q23, float(x), 2.0, 1.0) for x in xs]
        assert all(np.diff(vals) < 0)


class TestClosedForms:
    def test_time_in_red_m1(self, m1_q0):
        # kappa(1) = 2/3, so phi_{2/3} = 1 and the transform is 1 - e^{-x}/4
        for x in (0.0, 0.5, 1.0, 3.0):
            got = laws.time_in_red(m1_q0, x, 2.0 / 3.0)
            assert got == pytest.approx(1.0 - 0.25 * math.exp(-x), rel=1e-12)

    def test_time_in_red_guards(self, m1_q0, m1_q23):
        with pytest.raises(ValueError):
            laws.time_in_red(m1_q23, 1.0, 0.5)
        with pytest.raises(ValueError):
            laws.time_in_red(m1_q0, 1.0, 0.0)
        heavy = LevyModel(c=1.0, sigma2=0.0, lam=4.0, phases=((1.0, 2.0),))
        with pytest.raises(NonpositiveDrift):
            laws.time_in_red(build_scale(heavy, 0.0), 1.0, 0.5)

    def test_ruin_transform_m1(self, m1_q23):
        # E_x[e^{-q tau}] at theta = 0 collapses to e^{-4x/3}/3
        for x in (0.0, 0.7, 2.2):
            got = laws.severity_infinite(m1_q23, x, 0.0)
            assert got == pytest.approx(math.exp(-4.0 * x / 3.0) / 3.0, rel=1e-12)

    def test_parisian_up_exit_m2(self, m2_par):
        # W_{1,3}(x) = (3 e^x - e^{-x})/2 and W_{1,3}(0) = 1
        for b in (0.4, 1.0, 2.5):
            got = laws.up_exit(m2_par, 0.0, b, INF)
            assert got == pytest.approx(2.0 / (3.0 * math.exp(b) - math.exp(-b)), rel=1e-12)

    def test_gs_exit_exponential_matches_severity(self, m1_q23):
        x, b, theta = 0.6, 1.8, 1.3
        gs = gs_exit(m1_q23, x, b, Exponential(theta))
        assert gs == pytest.approx(laws.severity(m1_q23, x, b, theta), rel=1e-12)

    @pytest.mark.parametrize("label", sorted(MODELS))
    def test_gs_exit_exponential_is_severity_bit_for_bit(self, label):
        model, q, _ = MODELS[label]
        ctx = build_scale(model, q)
        b = 2.5
        xs = np.array([0.0, 0.45, 1.7, b])
        for theta in (0.0, 1.3):
            gs = gs_exit(ctx, xs, b, Exponential(theta))
            sev = laws.severity(ctx, xs, b, theta)
            assert [float(v).hex() for v in gs] == [float(v).hex() for v in sev], theta
            for x in xs:
                assert gs_exit(ctx, x, b, Exponential(theta)) == \
                    laws.severity(ctx, x, b, theta)

    @pytest.mark.parametrize("label", sorted(MODELS))
    def test_infinite_vartheta_is_absorption_bit_for_bit(self, label):
        """vartheta = INF is Z(x) - W(x)/W(b) Z(b) on either context's scale pair."""
        model, q, r = MODELS[label]
        pctx = build_parisian(model, q, r)
        b = 2.5
        xs = np.array([0.0, 0.45, 1.7, b])
        for theta in (0.0, 1.3, 4.0):
            for c in (pctx.base, pctx):
                z = c.Z(theta)
                want = z(xs) - c.W(xs) / c.W(b) * z(b)
                got = laws.severity(c, xs, b, theta, INF)
                assert [float(v).hex() for v in got] == [float(v).hex() for v in want], theta

    @pytest.mark.parametrize("label", sorted(MODELS))
    def test_reflected_exit_laws_agree(self, label):
        """The exit law of Exponential(theta) reflects at b with the law's vartheta."""
        model, q, _ = MODELS[label]
        ctx, b = build_scale(model, q), 2.5
        xs = np.linspace(0.0, b, 101)
        for theta in (0.0, 0.7, 1.3, 4.0):
            for vartheta in (0.0, 0.4, 3.0):
                want = laws.severity(ctx, xs, b, theta, vartheta)
                got = gs_exit(ctx, xs, b, Exponential(theta), vartheta)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_theta_past_kappas_overflow_is_refused(self, m1_q23):
        with pytest.raises(DomainError, match="theta"):
            laws.severity_infinite(m1_q23, 0.5, 1e200)

    @pytest.mark.parametrize("x", [math.inf, np.array([0.5, math.inf])])
    def test_laws_with_no_barrier_refuse_infinite_start(self, m1_q0, m1_q23, x):
        with pytest.raises(DomainError):
            laws.time_in_red(m1_q0, x, 2.0 / 3.0)
        with pytest.raises(DomainError):
            laws.severity_infinite(m1_q23, x, 1.3)

    @pytest.mark.parametrize("vartheta", [-1.0, math.nan])
    def test_vartheta_must_be_nonnegative(self, m1_q23, m1_par, vartheta):
        with pytest.raises(DomainError):
            laws.severity(m1_q23, 0.5, 1.5, 1.0, vartheta)
        with pytest.raises(DomainError):
            laws.severity(m1_par, 0.5, 1.5, 1.0, vartheta)


class TestScalePair:
    @pytest.mark.parametrize("label", sorted(MODELS))
    def test_infinite_theta(self, label):
        """theta = INF: the classical severity refuses it, up_exit on either context is the
        two-sided exit of that context's W, and the Parisian Z is W_{q,r} itself."""
        model, q, r = MODELS[label]
        pctx = build_parisian(model, q, r)
        b = 2.5
        xs = np.array([0.0, 0.45, 1.7, b])
        with pytest.raises(DomainError):
            laws.severity(pctx.base, xs, b, INF)
        for c in (pctx.base, pctx):
            got = laws.up_exit(c, xs, b, INF)
            want = c.W(xs) / c.W(b)
            assert [float(v).hex() for v in got] == [float(v).hex() for v in want]
            assert laws.up_exit(c, 0.45, b, INF) == c.W(0.45) / c.W(b)
        assert pctx.Z(INF) is pctx.W and pctx.Z(INF, 1) is pctx.dW


class TestParisianLimits:
    def test_large_r_recovers_classical_laws(self, m1, m1_q23):
        pctx = build_parisian(m1, 2.0 / 3.0, 1e4)
        b = 1.5
        for x in (0.0, 0.5, 1.0):
            up_p = laws.up_exit(pctx, x, b, INF)
            up_c = laws.up_exit(m1_q23, x, b, INF)
            assert up_p == pytest.approx(up_c, rel=1e-3)
            sev_p = laws.severity(pctx, x, b, 1.0)
            sev_c = laws.severity(m1_q23, x, b, 1.0)
            assert sev_p == pytest.approx(sev_c, rel=1e-3, abs=1e-6)

    def test_moderate_theta_z_limit(self, m1, m1_q23):
        pctx = build_parisian(m1, 2.0 / 3.0, 1e3)
        for x in (0.0, 0.8, 1.9):
            assert pctx.Z(1.2)(x) == pytest.approx(
                build_gerber_shiu(m1_q23, Exponential(1.2))(x), rel=1e-2)


class TestResolvent:
    def test_density_nonnegative(self, m1_par, m2_par):
        a, b = 0.0, 2.0
        for pctx in (m1_par, m2_par):
            for x in (0.3, 1.0, 1.7):
                ys = np.linspace(a + 1e-4, b - 1e-4, 50)
                dens = [laws.parisian_resolvent(pctx, x, a, b, float(y)) for y in ys]
                assert min(dens) >= -1e-12

    def test_integral_matches_quadrature(self, m1_par):
        a, b, x = 0.0, 2.0, 0.9
        exact = laws.parisian_resolvent_integral(m1_par, x, a, b)
        num, err = quad(lambda y: laws.parisian_resolvent(m1_par, x, a, b, y), a, b,
                        points=[x], limit=200)
        assert exact == pytest.approx(num, rel=1e-8)

    def test_domain_errors(self, m1_par):
        with pytest.raises(DomainError):
            laws.parisian_resolvent(m1_par, 3.0, 0.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            laws.parisian_resolvent(m1_par, 1.0, 0.0, 2.0, 2.5)
        # the integral names x, a and b as given, not the shifted x - a and b - a
        with pytest.raises(DomainError, match=r"x=3\.5, a=1\.0, b=2\.0"):
            laws.parisian_resolvent_integral(m1_par, 3.5, 1.0, 2.0)


class TestOmegaFactorization:
    @staticmethod
    def omega(pctx, b):
        """Omega = W'_{q,r}(b)/W_{q,r}(b), the rate of the dividends-at-ruin factorization."""
        return pctx.dW(b) / pctx.W(b)

    def test_matches_direct_form_at_b(self, m1_par, m2_par):
        """At x = b the law is Omega/(Omega + vartheta) (Z_q(b) - Z_q'(b)/Omega) r/(q + r -
        kappa(theta)), with Z_q = Z_q(., theta) and Omega = omega(b)."""
        for pctx in (m1_par, m2_par):
            for b in (0.5, 1.3, 2.4):
                for theta, vartheta in ((0.0, 0.0), (1.1, 0.7), (2.3, 0.0)):
                    direct = laws.severity(pctx, b, b, theta, vartheta)
                    om = self.omega(pctx, b)
                    z = build_gerber_shiu(pctx.base, Exponential(theta))
                    kappa = laplace_exponent(pctx.model, theta)
                    fact = (om / (om + vartheta) * (z(b) - z.dmix(b) / om)
                            * pctx.r / (pctx.r + pctx.q - kappa))
                    assert direct == pytest.approx(fact, rel=1e-10, abs=1e-12)

    def test_omega_closed_form(self, m1_par):
        # Omega = Phi_{q+r} - r W_q(b) / Z_q(b, Phi_{q+r})
        from parisian_scale.model import phi

        b = 1.1
        phi_qr = phi(m1_par.model, m1_par.q + m1_par.r)
        z_star = build_gerber_shiu(m1_par.base, Exponential(phi_qr))
        expected = phi_qr - m1_par.r * m1_par.base.W(b) / z_star(b)
        assert self.omega(m1_par, b) == pytest.approx(expected, rel=1e-12)
