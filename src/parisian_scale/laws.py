"""Closed-form first-passage laws, classical and Parisian.

Every function is a pure evaluation of scale-function ratios on an immutable
context, whose mixtures the scale module compiles once.  Each law takes x as
a scalar or a numpy array (b, theta, vartheta and r are scalars) and returns
a float or an array of the same shape.  Transform-type results are Laplace
transforms of nonnegative functionals and therefore live in [0, 1] for
nonnegative arguments.

Every law here but ``time_in_red`` and the resolvent density, and every dividend value
of ``control``, is one kernel, ``exit_law``: S(x) - W(x) B[S]/B[W] for a smooth
Gerber-Shiu function S (None reads as 0) and the scale function W of the same problem.
Absorbed at b (vartheta = INF), B[f] = f(b) and the kernel forms the ratio W(x)/W(b)
first, so an absorbed law is exactly +0.0 and an up-crossing exactly 1.0 at x = b.
Reflected at b, B[f] = f'(b) + vartheta f(b), with e^{-vartheta L} on the dividends L
paid up to ruin, undiscounted; that rule, and a B[S]/B[W] its caller reads (the b -> inf
slope, a ``Barrier`` row), form the product W(x) B[S] first, the order in which their
values were pinned.  ``severity`` and ``up_exit`` read the scale pair (ctx.W, ctx.Z) of
the context they are given: a ``ScaleContext`` gives the classical laws, with
(W_q, Z_q(., theta)), and a ``ParisianContext`` the Parisian ones, with
(W_{q,r}, Z_{q,r}(., theta)).  The classical law of a penalty w is
exit_law(gs, ctx.W, x, b, vartheta, gs.dmix, ctx.dW) with gs = build_gerber_shiu(ctx, w);
``severity`` is the one of Exponential(theta).
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
    if not (-INF < a < top and b != INF) or not ((a <= x) & (x <= top) & (x < INF)).all():
        raise DomainError(f"need finite a <= x <= b with a < b, got x={x}, a={a}, b={b}")


def exit_law(S, W, x, b: float | None, vartheta, dS=None, dW=None):
    """S(x) - W(x) B[S]/B[W] on 0 <= x <= b, S = None reading as 0: B[f] = f(b) for vartheta
    = INF, f'(b) + vartheta f(b) for a finite vartheta (dS = S', dW = W'); a pair (num, den)
    is -B[S] and B[W] as the caller read them; b = None checks 0 <= x < inf alone."""
    _check_interval(x, 0.0, b)
    if isinstance(vartheta, tuple):
        num, den = vartheta
    elif not vartheta >= 0:
        raise DomainError("vartheta must be nonnegative")
    elif vartheta == INF:
        up = W(x) / W(b)
        return up if S is None else S(x) - up * S(b)
    else:
        num, den = -(dS(b) + vartheta * S(b)), dW(b) + vartheta * W(b)
    v = W(x) * num / den
    return v if S is None else S(x) + v


def severity(ctx: ScaleContext | ParisianContext, x, b: float, theta: float,
             vartheta: float = INF):
    """Joint transform of ruin time and undershoot, absorbed at b, or reflected there with
    e^{-vartheta L} on the undiscounted dividends L for a finite vartheta."""
    dz = None if vartheta == INF else ctx.Z(theta, 1)   # absorbed: no derivative is read
    return exit_law(ctx.Z(theta), ctx.W, x, b, vartheta, dz, ctx.dW)


def severity_infinite(ctx: ScaleContext, x, theta: float):
    """Infinite-horizon ruin-time transform: as b -> inf, B[S]/B[W] tends to the first
    root slope (kappa(theta) - q)/(theta - Phi_q)."""
    if ctx.q <= 0 and ctx.phi_q <= 0:
        raise QZero("the q -> 0 limit is not provided")
    _check_theta(theta)
    return exit_law(ctx.Z(theta), ctx.W, x, None, (-_root_slopes(ctx, theta)[0], 1.0))


def up_exit(ctx: ScaleContext | ParisianContext, x, b: float, theta: float):
    """Transform of time and injections for the process reflected at 0 (classically, or at
    Parisian observation times) to reach b; theta = INF is the up-crossing before ruin."""
    return exit_law(None, ctx.W if theta == INF else ctx.Z(theta), x, b, INF)


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
    return 0.0 - exit_law(pctx.Wbar, pctx.W, x - a, b - a, INF)
