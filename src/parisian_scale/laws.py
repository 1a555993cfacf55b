"""Closed-form first-passage laws, classical and Parisian.

Every function is a pure evaluation of scale-function ratios on an immutable
context, whose mixtures the scale module compiles once.  Each law takes x as
a scalar or a numpy array (b, theta, vartheta and r are scalars) and returns
a float or an array of the same shape.  Transform-type results are Laplace
transforms of nonnegative functionals and therefore live in [0, 1] for
nonnegative arguments.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NonpositiveDrift, QZero
from .model import laplace_exponent, laplace_exponent_deriv, phi as _phi
from .scale import (
    INF,
    Exponential,
    ParisianContext,
    PenaltySpec,
    ScaleContext,
    build_gerber_shiu,
    parisian_Z_mix,
    piecewise,
    z_mix,  # noqa: F401  re-exported; perfbench/test_perfbench.py checks laws.z_mix
)


def _check_interval(x, a: float, b: float):
    x = np.asarray(x)
    if not a < b or not np.all((a <= x) & (x <= b)):
        raise DomainError(f"need a <= x <= b with a < b, got x={x}, a={a}, b={b}")


def z_deriv(ctx: ScaleContext, x, theta: float):
    """Z'_q(x, theta) = theta Z_q(x, theta) + (q - kappa(theta)) W_q(x)."""
    z = build_gerber_shiu(ctx, Exponential(theta))
    k = laplace_exponent(ctx.model, theta).real
    return theta * z(x) + (ctx.q - k) * ctx.W(x)


def two_sided_exit(ctx: ScaleContext, x, a: float, b: float):
    """E_x[e^{-q tau_b^+}; up-crossing of b before down-crossing of a]."""
    _check_interval(x, a, b)
    return ctx.W(x - a) / ctx.W(b - a)


def severity_absorbed(ctx: ScaleContext, x, b: float, theta: float):
    """Joint transform of ruin time and undershoot, absorbed at b."""
    return gs_exit(ctx, x, b, Exponential(theta))


def severity_reflected(ctx: ScaleContext, x, b: float, theta: float):
    """Joint transform of ruin time and undershoot, with dividends at b."""
    _check_interval(x, 0.0, b)
    z = build_gerber_shiu(ctx, Exponential(theta))
    return z(x) - ctx.W(x) * z_deriv(ctx, b, theta) / ctx.dW(b)


def severity_infinite(ctx: ScaleContext, x, theta: float, mode: str = "ruin"):
    """Infinite-horizon ruin-time / recovery-time transform."""
    _check_interval(x, 0.0, INF)
    if ctx.q <= 0 and ctx.phi_q <= 0:
        raise QZero("the q -> 0 limit is not provided")
    if mode == "recovery":
        z = build_gerber_shiu(ctx, Exponential(ctx.phi_q))
        return z(x) - ctx.q * ctx.W(x) / ctx.phi_q
    if mode != "ruin":
        raise ValueError(f"unknown mode {mode!r}")
    k = laplace_exponent(ctx.model, theta).real
    if abs(theta - ctx.phi_q) < 1e-9:
        slope = laplace_exponent_deriv(ctx.model, ctx.phi_q).real
    else:
        slope = (k - ctx.q) / (theta - ctx.phi_q)
    return build_gerber_shiu(ctx, Exponential(theta))(x) - ctx.W(x) * slope


def bailouts_to_level(ctx: ScaleContext, x, b: float, theta: float):
    """Transform of time and injections for the 0-reflected process to reach b."""
    _check_interval(x, 0.0, b)
    if theta == INF:
        return ctx.W(x) / ctx.W(b)
    z = build_gerber_shiu(ctx, Exponential(theta))
    return z(x) / z(b)


def dividends_penalty_classic(
    ctx: ScaleContext, x, b: float, theta: float, vartheta: float
):
    """Joint dividends-and-severity transform for the process reflected at b."""
    _check_interval(x, 0.0, b)
    if not vartheta >= 0:
        raise DomainError("vartheta must be nonnegative")
    z = build_gerber_shiu(ctx, Exponential(theta))
    num = z_deriv(ctx, b, theta) + vartheta * z(b)
    den = ctx.dW(b) + vartheta * ctx.W(b)
    return z(x) - ctx.W(x) * num / den


def gs_exit(
    ctx: ScaleContext,
    x,
    b: float,
    penalty: PenaltySpec,
    boundary: str = "absorbed",
):
    """Penalty-at-ruin transform with absorption or reflection at b."""
    _check_interval(x, 0.0, b)
    gs = build_gerber_shiu(ctx, penalty)
    if boundary == "absorbed":
        return gs(x) - ctx.W(x) / ctx.W(b) * gs(b)
    if boundary == "reflected":
        return gs(x) - ctx.W(x) * gs.dmix(b) / ctx.dW(b)
    raise ValueError(f"unknown boundary {boundary!r}")


def time_in_red(ctx_q0: ScaleContext, x, r: float):
    """E_x[e^{-r * total time below zero}] for the free process, q = 0."""
    if ctx_q0.q != 0:
        raise DomainError("time_in_red needs the q = 0 context")
    if not r > 0:
        raise DomainError("r must be positive")
    _check_interval(x, 0.0, INF)
    p = ctx_q0.model.drift
    if p <= 0:
        raise NonpositiveDrift("requires strictly positive drift")
    phi_r = _phi(ctx_q0.model, r)
    return p * phi_r / r * build_gerber_shiu(ctx_q0, Exponential(phi_r))(x)


# ---------------------------------------------------------------------------
# Parisian laws (Poisson-observed insolvency)
# ---------------------------------------------------------------------------
def parisian_up_exit(pctx: ParisianContext, x, b: float, theta: float):
    """Transform of time/injections for Parisian reflection to reach b.

    theta = INF is the no-insolvency up-crossing E_x[e^{-q tau_b^+}; tau_b^+ < T_0^-].
    """
    _check_interval(x, 0.0, b)
    mix = parisian_Z_mix(pctx, theta)
    return mix(x) / mix(b)


def parisian_severity(pctx: ParisianContext, x, b: float, theta: float):
    """Severity of Parisian ruin with absorption at b."""
    _check_interval(x, 0.0, b)
    z, w = parisian_Z_mix(pctx, theta), pctx.Wqr
    return z(x) - w(x) / w(b) * z(b)


def parisian_resolvent(pctx: ParisianContext, x, a: float, b: float, y: float):
    """Resolvent density at y of the doubly absorbed Parisian process."""
    _check_interval(x, a, b)
    if not a < y < b:
        raise DomainError("need a < y < b")
    w = pctx.Wqr
    val = w(x - a) * w(b - y) / w(b - a)
    return val - piecewise(x, y < np.asarray(x), lambda z: w(z - y), np.zeros_like)


def parisian_resolvent_integral(pctx: ParisianContext, x, a: float, b: float):
    """Exact int_a^b of the resolvent density, via mixture antiderivatives."""
    _check_interval(x, a, b)
    wbar = pctx.Wbar_qr
    w = pctx.Wqr
    return w(x - a) * wbar(b - a) / w(b - a) - wbar(x - a)


def omega(pctx: ParisianContext, b: float) -> float:
    """Rate of the exponential dividends-at-ruin factorization.

    Omega = W'_{q,r}(b)/W_{q,r}(b) = Phi_{q+r} - r W_q(b)/Z_q(b, Phi_{q+r}).
    """
    if b < 0:
        raise DomainError("b must be nonnegative")
    return pctx.dWqr(b) / pctx.Wqr(b)


def parisian_dividends_penalty(
    pctx: ParisianContext, x, b: float, theta: float, vartheta: float
):
    """Dividends-penalty law under Parisian ruin, reflected at b."""
    _check_interval(x, 0.0, b)
    if not vartheta >= 0:
        raise DomainError("vartheta must be nonnegative")
    zm = parisian_Z_mix(pctx, theta)
    wm = pctx.Wqr
    num = parisian_Z_mix(pctx, theta, 1)(b) + vartheta * zm(b)
    den = pctx.dWqr(b) + vartheta * wm(b)
    return zm(x) - wm(x) * num / den


def parisian_dividends_penalty_factorized(
    pctx: ParisianContext, b: float, theta: float, vartheta: float
) -> float:
    """Equivalent x = b form via the Omega factorization (consistency check)."""
    if b < 0:
        raise DomainError("b must be nonnegative")
    q, r = pctx.q, pctx.r
    k = laplace_exponent(pctx.model, theta).real
    om = omega(pctx, b)
    z = build_gerber_shiu(pctx.base, Exponential(theta))
    inner = z(b) - z_deriv(pctx.base, b, theta) / om
    return om / (om + vartheta) * inner * r / (r + q - k)


def fundamental_identity_residual(ctx: ScaleContext, x, b: float, theta: float):
    """Residual of Z(x)/Z(b) - W(x)/W(b) - S(x,b)/Z(b); zero by the exit-law algebra."""
    z = build_gerber_shiu(ctx, Exponential(theta))
    zb = z(b)
    return (
        z(x) / zb
        - ctx.W(x) / ctx.W(b)
        - severity_absorbed(ctx, x, b, theta) / zb
    )
