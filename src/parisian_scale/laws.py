"""Closed-form first-passage laws, classical and Parisian.

Every function is a pure evaluation of scale-function ratios on an immutable
context, whose mixtures the scale module compiles once.  Each law takes x as
a scalar or a numpy array (b, theta, vartheta and r are scalars) and returns
a float or an array of the same shape.  Transform-type results are Laplace
transforms of nonnegative functionals and therefore live in [0, 1] for
nonnegative arguments.

The exit laws on [0, b] are one law, ``exit_law``: S(x) - W(x) B[S]/B[W] for a
smooth Gerber-Shiu function S and the scale function W of the same problem.
B[f] = f(b) when the process is absorbed at b (vartheta = INF), and
B[f] = f'(b) + vartheta f(b) when it is reflected at b, with e^{-vartheta L} on
the dividends L paid up to ruin, undiscounted.  ``severity`` and ``up_exit``
read the scale pair (ctx.W, ctx.Z) of whichever context they are given: a
``ScaleContext`` gives the classical laws, with (W_q, Z_q(., theta)), and a
``ParisianContext`` the Parisian ones, with (W_{q,r}, Z_{q,r}(., theta)).  The classical
law of a penalty w is exit_law(gs, ctx.W, x, b, vartheta, gs.dmix, ctx.dW) with gs =
build_gerber_shiu(ctx, w); ``severity`` is the one of Exponential(theta).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NonpositiveDrift, QZero
from .model import phi as _phi
from .scale import (
    INF,
    ParisianContext,
    ScaleContext,
    _check_theta,
    _root_slopes,
    piecewise,
    z_mix,  # noqa: F401  re-exported; perfbench/test_perfbench.py checks laws.z_mix
)


def _check_interval(x, a: float, b: float | None):
    """a <= x <= b with finite a < b; b None, for a law with no barrier, checks a <= x < inf."""
    x = np.asarray(x)
    top = INF if b is None else b
    if not (-INF < a < top and b != INF) or not np.all((a <= x) & (x <= top) & (x < INF)):
        raise DomainError(f"need finite a <= x <= b with a < b, got x={x}, a={a}, b={b}")


def exit_law(S, W, x, b: float, vartheta: float, dS=None, dW=None):
    """S(x) - W(x) B[S]/B[W] on 0 <= x <= b: the exit law of the Gerber-Shiu function S.

    B[f] = f(b) for vartheta = INF (absorbed at b); otherwise B[f] = f'(b) + vartheta f(b)
    (reflected at b, e^{-vartheta L} on the undiscounted dividends L), dS = S', dW = W'.
    """
    _check_interval(x, 0.0, b)
    if not vartheta >= 0:
        raise DomainError("vartheta must be nonnegative")
    if vartheta == INF:
        return S(x) - W(x) / W(b) * S(b)
    return S(x) - W(x) * (dS(b) + vartheta * S(b)) / (dW(b) + vartheta * W(b))


def severity(ctx: ScaleContext | ParisianContext, x, b: float, theta: float,
             vartheta: float = INF):
    """Joint transform of ruin time and undershoot, absorbed at b, or reflected there with
    e^{-vartheta L} on the undiscounted dividends L for a finite vartheta."""
    z = ctx.Z(theta)
    if vartheta == INF:     # absorbed: no derivative is read, so none is built
        return exit_law(z, ctx.W, x, b, vartheta)
    return exit_law(z, ctx.W, x, b, vartheta, ctx.Z(theta, 1), ctx.dW)


def severity_infinite(ctx: ScaleContext, x, theta: float):
    """Infinite-horizon ruin-time transform."""
    _check_interval(x, 0.0, None)
    if ctx.q <= 0 and ctx.phi_q <= 0:
        raise QZero("the q -> 0 limit is not provided")
    _check_theta(theta)
    slope = _root_slopes(ctx, theta)[0]     # (kappa(theta) - q)/(theta - Phi_q)
    return ctx.Z(theta)(x) - ctx.W(x) * slope


def up_exit(ctx: ScaleContext | ParisianContext, x, b: float, theta: float):
    """Transform of time and injections for the process reflected at 0 (classically, or at
    Parisian observation times) to reach b; theta = INF is the up-crossing before ruin."""
    _check_interval(x, 0.0, b)
    z = ctx.W if theta == INF else ctx.Z(theta)
    return z(x) / z(b)


def time_in_red(ctx_q0: ScaleContext, x, r: float):
    """E_x[e^{-r * total time below zero}] for the free process, q = 0."""
    if ctx_q0.q != 0:
        raise DomainError("time_in_red needs the q = 0 context")
    if not r > 0:
        raise DomainError("r must be positive")
    _check_interval(x, 0.0, None)
    p = ctx_q0.model.drift
    if p <= 0:
        raise NonpositiveDrift("requires strictly positive drift")
    phi_r = _phi(ctx_q0.model, r)
    return p * phi_r / r * ctx_q0.Z(phi_r)(x)


# ---------------------------------------------------------------------------
# Parisian laws (Poisson-observed insolvency)
# ---------------------------------------------------------------------------
def parisian_resolvent(pctx: ParisianContext, x, a: float, b: float, y: float):
    """Resolvent density at y of the doubly absorbed Parisian process."""
    _check_interval(x, a, b)
    if not a < y < b:
        raise DomainError("need a < y < b")
    w = pctx.W
    val = w(x - a) * w(b - y) / w(b - a)
    return val - piecewise(x, y < np.asarray(x), lambda z: w(z - y), np.zeros_like)


def parisian_resolvent_integral(pctx: ParisianContext, x, a: float, b: float):
    """Exact int_a^b of the resolvent density, via mixture antiderivatives."""
    _check_interval(x, a, b)
    wbar = pctx.Wbar
    w = pctx.W
    return w(x - a) * wbar(b - a) / w(b - a) - wbar(x - a)
