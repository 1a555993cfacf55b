"""Dividend and bailout optimization on top of the scale calculus.

Barrier value functions, the barrier influence function G and its last
global maximizer, the efficiency threshold k(q, r) with its patience
solver, and the claims-line network helpers.  The value functions take x
as a scalar or a numpy array (b and k are scalars); G takes a scalar b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    NoSolution,
    QZero,
    RetentionOutOfRange,
)
from .model import LevyModel, phi
from .scale import (
    Constant,
    ParisianContext,
    PenaltySpec,
    ScaleContext,
    build_gerber_shiu,
    parisian_Z_mix,
    piecewise,
)

_GOLD = (math.sqrt(5.0) - 1.0) / 2.0


def _check_barrier_interval(x, b: float):
    if not (b < math.inf and np.all((0.0 <= np.asarray(x)) & (np.asarray(x) <= b))):
        raise DomainError(f"need 0 <= x <= b with a finite b, got x={x}, b={b}")


def vf_dividends_classic(ctx: ScaleContext, x, b: float):
    """Expected discounted dividends at barrier b until ruin: W_q(x)/W_q'(b)."""
    _check_barrier_interval(x, b)
    return ctx.W(x) / ctx.dW(b)


def value_definetti(ctx: ScaleContext, x, b: float, penalty: PenaltySpec):
    """Barrier dividend value with a terminal penalty (Dickson-Waters form).

    For x <= b the value is S_w(x) + W_q(x) (1 - S_w'(b)) / W_q'(b) where
    S_w is the smooth harmonic extension of the penalty w.  Above the
    barrier the excess is paid out immediately as a lump sum.
    """
    if not (np.all(np.asarray(x) >= 0) and 0 <= b < math.inf):
        raise DomainError(f"need x >= 0 and a finite b >= 0, got x={x}, b={b}")
    gs = build_gerber_shiu(ctx, penalty)
    slope_num, slope_den = 1.0 - gs.dmix(b), ctx.dW(b)

    def inside(y):
        return gs(y) + ctx.W(y) * slope_num / slope_den
    return piecewise(x, np.asarray(x) <= b, inside, lambda y: y - b + inside(b))


def barrier_function(
    kind: str,
    ctx,
    b: float,
    k: float = 0.0,
    penalty: PenaltySpec | None = None,
) -> float:
    """Barrier influence function G(b) whose last global max locates b*.

    kind selects the objective: "deFinetti_classic" (terminal penalty,
    pass `penalty`), "SLG_classic" (reduced form G~, pass cost `k`), or
    "SLG_parisian" (pass cost `k`, ctx must be a ParisianContext).
    """
    if not 0 <= b < math.inf:
        raise DomainError(f"need a finite b >= 0, got b={b}")
    if kind == "deFinetti_classic":
        gs = build_gerber_shiu(ctx, penalty if penalty is not None else Constant(0.0))
        return (1.0 - gs.dmix(b)) / ctx.dW(b)
    if kind == "SLG_classic":
        if ctx.q <= 0:
            raise QZero("SLG barrier function needs q > 0")
        num = 1.0 - k * ctx.Z0(b)
        den = ctx.q * ctx.W(b)
        if den == 0.0:
            # only possible at b=0 with sigma > 0; take the W'(0+) limit
            if abs(num) < 1e-14:
                return 0.0
            return math.copysign(math.inf, num)
        return num / den
    if kind == "SLG_parisian":
        return (1.0 - k * ctx.dS(b)) / parisian_Z_mix(ctx, 0.0, 1)(b)
    raise DomainError(f"unknown barrier function kind {kind!r}")


@dataclass(frozen=True)
class BarrierSolution:
    b_star: float
    G_at_b_star: float
    is_boundary: bool


def optimize_barrier(G, b_max: float, n_grid: int = 1000, tol: float = 1e-8) -> BarrierSolution:
    """Last global maximizer of G on [0, b_max].

    Coarse grid scan (ties broken toward larger b, since barrier
    functions can plateau) followed by golden-section refinement of the
    bracketing cell.  Raises NoSolution if G is still increasing at
    b_max, so a truncated search is never reported as an optimum, and
    also if G is NaN on the grid or 0 at every grid point past b = 0,
    where the grid is too coarse to resolve the maximum.
    """
    if not (b_max > 0 and n_grid >= 1 and tol > 0 and math.isfinite(b_max * n_grid)):
        raise DomainError(f"need b_max > 0, n_grid >= 1, tol > 0 and a finite b_max * n_grid,"
                          f" got {b_max}, {n_grid}, {tol}")
    bs = [b_max * i / n_grid for i in range(n_grid + 1)]
    vals = [G(b) for b in bs]
    if any(math.isnan(v) for v in vals) or not any(vals[1:]):
        raise NoSolution(f"the grid on [0, {b_max}] does not resolve the barrier function:"
                         " it is NaN or 0 past b = 0; shrink the search interval")
    best = max(range(len(bs)), key=lambda i: (vals[i], i))
    if best == len(bs) - 1 and vals[-1] > vals[-2]:
        raise NoSolution(
            f"barrier function still increasing at b_max={b_max}; enlarge the search interval"
        )
    # golden section for the last maximum: on ties keep the right subinterval; stop
    # at tol, or where rounding stops the bracket from shrinking
    a, d = bs[max(best - 1, 0)], bs[min(best + 1, n_grid)]
    c1 = d - _GOLD * (d - a)
    c2 = a + _GOLD * (d - a)
    f1, f2 = G(c1), G(c2)
    width = math.inf
    while tol < d - a < width:
        width = d - a
        if f1 > f2:
            d, c2, f2 = c2, c1, f1
            c1 = d - _GOLD * (d - a)
            f1 = G(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + _GOLD * (d - a)
            f2 = G(c2)
    b_star = 0.5 * (a + d)
    if b_star < tol:
        b_star = 0.0
    g_star = G(b_star)
    # a boundary solution at 0 can be shadowed by grid granularity
    g0 = vals[0]
    if g0 >= g_star and best == 0:
        b_star, g_star = 0.0, g0
    return BarrierSolution(
        b_star=b_star,
        G_at_b_star=g_star,
        is_boundary=(b_star == 0.0),
    )


def value_slg_classic(ctx: ScaleContext, x, b: float, k: float):
    """Dividends minus k times injections for the doubly reflected process."""
    _check_barrier_interval(x, b)
    if ctx.q <= 0:
        raise QZero("SLG value needs q > 0")
    q = ctx.q
    lx = ctx.Zbar(x) + ctx.model.drift / q
    return k * lx + ctx.Z0(x) * (1.0 - k * ctx.Z0(b)) / (q * ctx.W(b))


def value_parisian(pctx: ParisianContext, x, b: float, part: str, theta: float = 0.0):
    """One component of the Parisian barrier objective.

    VF_* parts reflect the surplus at 0 via Poissonian injections and pay
    dividends at b; VS_* parts are the SLG decomposition pieces.
    """
    _check_barrier_interval(x, b)
    if pctx.q <= 0:
        raise QZero("Parisian barrier values need q > 0")
    if part == "VF_div":
        return pctx.Wqr(x) / pctx.dWqr(b)
    if part == "VS_div_theta":
        return parisian_Z_mix(pctx, theta)(x) / parisian_Z_mix(pctx, theta, 1)(b)
    z = parisian_Z_mix(pctx, 0.0)
    if part == "VF_bail":
        return z(x) * pctx.S(b) / z(b) - pctx.S(x)
    if part == "VS_div":
        return z(x) / parisian_Z_mix(pctx, 0.0, 1)(b)
    if part == "VS_bail":
        return z(x) * pctx.dS(b) / parisian_Z_mix(pctx, 0.0, 1)(b) - pctx.S(x)
    raise DomainError(f"unknown Parisian value part {part!r}")


def slg_parisian_value(pctx: ParisianContext, x, b: float, k: float):
    """SLG value with Parisian reflection: k S(x) + Z_{q,r}(x)(1 - k S'(b))/Z_{q,r}'(b)."""
    _check_barrier_interval(x, b)
    if pctx.q <= 0:
        raise QZero("SLG value needs q > 0")
    dZb = parisian_Z_mix(pctx, 0.0, 1)(b)
    return k * pctx.S(x) + parisian_Z_mix(pctx, 0.0)(x) * (1.0 - k * pctx.dS(b)) / dZb


def _threshold(model: LevyModel, q: float, r: float) -> float:
    w0 = 0.0 if model.sigma2 > 0 else 1.0 / model.c
    phi_qr = phi(model, q + r)
    den = phi_qr - (r + q) * w0
    if den <= 0.0:
        return math.inf
    return (1.0 + q / r) * (phi_qr - r * w0) / den


def efficiency_index(pctx: ParisianContext) -> float:
    """Largest bailout cost k for which an immediate-dividend policy stays optimal.

    Returns +inf when the denominator of the closed ratio is nonpositive
    (every cost is then efficient).
    """
    if pctx.q <= 0 or pctx.r <= 0:
        raise DomainError("efficiency index needs q > 0 and r > 0")
    return _threshold(pctx.model, pctx.q, pctx.r)


def is_efficient(pctx: ParisianContext, k: float) -> bool:
    return k <= efficiency_index(pctx)


def solve_patience(pctx: ParisianContext, k: float, tol: float = 1e-8) -> float:
    """Smallest extra killing rate q' making cost k efficient at discount q+q'.

    The threshold k(q, r) is increasing in q, so bisection applies once an
    efficient upper bound is bracketed by doubling.
    """
    model, q, r = pctx.model, pctx.q, pctx.r
    if not q > 0:
        raise DomainError("patience needs q > 0")
    if math.isnan(k):
        raise DomainError("patience needs a cost k, got NaN")
    if k <= _threshold(model, q, r):
        return 0.0
    hi = q
    cap = q * 2.0**60
    while _threshold(model, q + hi, r) < k:
        hi *= 2.0
        if hi > cap:
            raise NoSolution(
                f"no extra killing below {cap} makes k={k} efficient; threshold not increasing?"
            )
    lo = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        km = _threshold(model, q + mid, r)
        if abs(km - k) <= tol * k:
            return mid
        if km < k:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15 * max(1.0, hi):
            return hi


@dataclass(frozen=True)
class Subsidiary:
    premium: float
    lam: float
    phases: tuple
    retention: float


@dataclass(frozen=True)
class NetworkSpec:
    """Central branch reinsuring I subsidiaries at proportional retentions."""

    subsidiaries: tuple
    c0: float
    q: float

    def __post_init__(self):
        for s in self.subsidiaries:
            if not 0.0 < s.retention < 1.0:
                raise RetentionOutOfRange(f"retention {s.retention} outside (0, 1)")

    @property
    def gamma(self) -> float:
        return sum(s.retention / (1.0 - s.retention) for s in self.subsidiaries)

    @property
    def c_tilde(self) -> float:
        return self.gamma * sum(
            s.premium * (1.0 - s.retention) / s.retention for s in self.subsidiaries
        )

    @property
    def cheap(self) -> bool:
        return all(
            self.c0 <= s.premium * (1.0 - s.retention) / s.retention
            for s in self.subsidiaries
        )


def network_check(spec: NetworkSpec) -> dict:
    return {"cheap": spec.cheap, "gamma": spec.gamma, "c_tilde": spec.c_tilde}


def network_claims_line(spec: NetworkSpec, u0: float) -> list:
    """Subsidiary reserves on the claims line through central reserve u0."""
    return [u0 * s.retention / (1.0 - s.retention) for s in spec.subsidiaries]

