"""Dividend and bailout optimization on top of the scale calculus.

Each barrier objective is a ``Barrier`` row (W, W', S, S'): the dividends at b net of S,
V(x) = S(x) + W(x) (1 - S'(b)) / W'(b) on [0, b] and x - b + V(b) above b, with the
barrier function G(b) = (1 - S'(b)) / W'(b), whose S'(b) and W'(b) are two rows of one
e^{rho b}.  V on [0, b] is the one exit kernel ``laws.exit_law`` on (S, W) with that
(num, den), in the kernel's product-first order; ``parisian_bailouts`` is minus its
exit law of S.  The makers ``definetti``, ``slg_classic``, ``parisian_dividends`` and
``slg_parisian`` give the rows.
Also here: the last-global-maximum optimizer, the efficiency threshold
k(q, r) with its patience solver, and the reinsurance network's spec.
Values take x as a scalar or a numpy array; b, theta and k are scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .errors import DomainError, NoSolution, QZero, RetentionOutOfRange
from .expmix import ExpMix, Stack
from .laws import exit_law
from .model import LevyModel, phi
from .scale import (
    Constant,
    ParisianContext,
    PenaltySpec,
    ScaleContext,
    build_gerber_shiu,
    piecewise,
)

_GOLD = (math.sqrt(5.0) - 1.0) / 2.0
_PATIENCE_TOL = 1e-8                # relative error of the threshold at the patience


def _need_q(ctx):
    if ctx.q <= 0:
        raise QZero("this barrier objective needs q > 0")


def _need_cost(k):
    if not math.isfinite(k):
        raise DomainError(f"the bailout cost k must be finite, got {k}")


@dataclass(frozen=True, eq=False)
class Barrier:
    """Dividends at b net of k S, V(x) = k S(x) + W(x) (1 - S'(b)) / W'(b); S = None reads as 0.

    W and S are read on x >= 0.  S'(b) = k dS(b) and W'(b) = q dW(b) are read at b only,
    from the mixtures dS and dW, rows on one basis that ``G`` evaluates from one e^{rho b};
    with dW0_zero, W'(0) reads as exactly 0 (W_q(0) = 0 when sigma > 0, where its mixture
    leaves a residue of either sign).
    """

    W: Callable
    dW: ExpMix
    S: Callable | None = None
    dS: ExpMix | None = None
    k: float = 1.0
    q: float = 1.0
    dW0_zero: bool = False

    _rows = cached_property(lambda self: Stack((self.dW,) if self.dS is None
                                               else (self.dW, self.dS)))

    def _slope(self, b):
        if not 0 <= b < math.inf:
            raise DomainError(f"need a finite b >= 0, got b={b}")
        rows = self._rows(b).tolist()
        # the factors multiply the rows' sums; k = q = 1 reads each sum as it is
        num = 1.0 if self.dS is None else 1.0 - self.k * rows[1]
        return num, 0.0 if self.dW0_zero and b == 0 else self.q * rows[0]

    def G(self, b: float) -> float:
        """(1 - S'(b)) / W'(b); where W'(b) = 0 (b = 0, sigma > 0), its limit as b -> 0+."""
        num, den = self._slope(b)
        if den == 0.0:
            return 0.0 if abs(num) < 1e-14 else math.copysign(math.inf, num)
        return num / den

    def value(self, x, b: float):
        """V on 0 <= x <= b (b = 0 too: the pair reads no b), and x - b + V(b) above b."""
        num, den = self._slope(b)
        if not (np.asarray(x) >= 0).all() or den == 0.0:
            raise DomainError(f"need x >= 0 and W'(b) != 0, got x={x}, b={b}")
        S = None if self.S is None else lambda y: self.k * self.S(y)
        inside = partial(exit_law, S, self.W, b=None, vartheta=(num, den))
        return piecewise(x, np.asarray(x) <= b, inside, lambda y: y - b + inside(b))


def definetti(ctx: ScaleContext, penalty: PenaltySpec) -> Barrier:
    """Dividends at b until ruin, net of the penalty w at ruin: S_w is w's Gerber-Shiu function."""
    gs = build_gerber_shiu(ctx, penalty)
    return Barrier(ctx.W, ctx.dW, gs, gs.dmix)


def slg_classic(ctx: ScaleContext, k: float) -> Barrier:
    """Dividends at b less k times the injections that reflect the surplus at 0."""
    _need_q(ctx)
    _need_cost(k)
    q, p = ctx.q, ctx.model.drift
    return Barrier(ctx.Z0, ctx.W, lambda y: ctx.Zbar(y) + p / q, ctx.Z0, k=k, q=q,
                   dW0_zero=ctx.model.sigma2 > 0)


def parisian_dividends(pctx: ParisianContext, theta: float) -> Barrier:
    """Dividends at b under Parisian observation at 0: until ruin for theta = INF (VF_div),
    with bailouts for theta = 0 (VS_div)."""
    _need_q(pctx)
    return Barrier(pctx.Z(theta), pctx.Z(theta, 1))


def slg_parisian(pctx: ParisianContext, k: float) -> Barrier:
    """Dividends at b less k times the bailouts of Parisian reflection at 0."""
    _need_q(pctx)
    _need_cost(k)
    return Barrier(pctx.Z(0.0), pctx.Z(0.0, 1), pctx.S, pctx.dS, k=k)


def parisian_bailouts(pctx: ParisianContext, x, b: float, vartheta: float):
    """Bailouts of Parisian reflection at 0 until b (vartheta = INF, VF_bail), or for ever with
    reflection at b too (vartheta = 0, VS_bail): 0.0 - the exit law of S, +0.0 at x = b."""
    return 0.0 - exit_law(pctx.S, pctx.Z(0.0), x, b, vartheta, pctx.dS, pctx.Z(0.0, 1))


_ROWS = {"deFinetti_classic": lambda ctx, k, w: definetti(ctx, Constant(0.0) if w is None else w),
         "SLG_classic": lambda ctx, k, w: slg_classic(ctx, k),
         "SLG_parisian": lambda ctx, k, w: slg_parisian(ctx, k)}


def barrier_function(
    kind: str,
    ctx,
    b: float,
    k: float = 0.0,
    penalty: PenaltySpec | None = None,
) -> float:
    """G(b) of the row of kind "deFinetti_classic" (pass `penalty`), "SLG_classic" or
    "SLG_parisian" (pass the cost `k`; ctx a ParisianContext); its last global max is b*.
    The row is built once per (kind, k, penalty) and kept in the context."""
    # a solve reads the row once per G call, so a hit makes no closure and no call
    key = ("barrier", kind, k, penalty)
    row = ctx._memo.get(key)
    if row is None:
        if kind not in _ROWS:
            raise DomainError(f"unknown barrier function kind {kind!r}")
        row = ctx._memo[key] = _ROWS[kind](ctx, k, penalty)
    return row.G(b)


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
    if any(map(math.isnan, vals)) or not any(vals[1:]):
        raise NoSolution(f"the grid on [0, {b_max}] does not resolve the barrier function:"
                         " it is NaN or 0 past b = 0; shrink the search interval")
    # the last index of the maximum (0.0 and -0.0 tie, as == has them)
    best = n_grid - vals[::-1].index(max(vals))
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


def _threshold(model: LevyModel, q: float, r: float) -> float:
    phi_qr = phi(model, q + r)
    if model.sigma2 > 0:
        num = den = phi_qr
    else:
        # phi - r/c over phi - (q + r)/c, where kappa(phi) = q + r makes the denominator
        # (lam phi / c) sum p_i / (mu_i + phi) exactly: that form does not cancel
        den = model.lam * phi_qr / model.c * sum(p / (mu + phi_qr) for p, mu in model.phases)
        num = q / model.c + den
    if den <= 0.0:
        return math.inf
    return (1.0 + q / r) * num / den


def efficiency_index(pctx: ParisianContext) -> float:
    """Largest bailout cost k for which an immediate-dividend policy stays optimal.

    Returns +inf when the denominator of the closed ratio is nonpositive
    (every cost is then efficient).
    """
    if pctx.q <= 0 or pctx.r <= 0:
        raise DomainError("efficiency index needs q > 0 and r > 0")
    return _threshold(pctx.model, pctx.q, pctx.r)


def solve_patience(pctx: ParisianContext, k: float) -> float:
    """Smallest extra killing rate q' making cost k efficient at discount q+q'.

    The threshold k(q, r) is increasing in q, so bisection applies once an
    efficient upper bound is bracketed by doubling.  NoSolution when k = inf, when
    no bracket below 2^60 max(q, 1) holds, or when the threshold at the bracket reads inf.
    """
    model, q, r = pctx.model, pctx.q, pctx.r
    if not q > 0:
        raise DomainError("patience needs q > 0")
    if math.isnan(k):
        raise DomainError("patience needs a cost k, got NaN")
    if k <= _threshold(model, q, r):
        return 0.0
    if k == math.inf:
        raise NoSolution("no finite extra killing makes k=inf efficient")
    hi = max(q, 2.0**-40)           # a tiny q doubles up from 2^-40, not from q
    cap = max(q, 1.0) * 2.0**60
    while (k_hi := _threshold(model, q + hi, r)) < k:
        hi *= 2.0
        if hi > cap:
            raise NoSolution(
                f"no extra killing below {cap} makes k={k} efficient; threshold not increasing?"
            )
    if not math.isfinite(k_hi):
        raise NoSolution(f"the threshold reads inf at q={q + hi}, so k={k} has no patience")
    lo = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        km = _threshold(model, q + mid, r)
        if abs(km - k) <= _PATIENCE_TOL * k:
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

    def __post_init__(self):
        LevyModel(c=self.premium, lam=self.lam, phases=self.phases)   # refuse what it refuses


@dataclass(frozen=True)
class NetworkSpec:
    """Central branch reinsuring I subsidiaries at proportional retentions."""

    subsidiaries: tuple
    c0: float
    q: float

    def __post_init__(self):
        if not 0 <= self.q < math.inf:
            raise DomainError(f"the discount rate q must be finite and nonnegative, got {self.q}")
        if not 0 <= self.c0 < math.inf:
            raise DomainError(f"the premium c0 must be finite and nonnegative, got {self.c0}")
        if not sum(s.lam for s in self.subsidiaries) > 0:
            raise DomainError("the subsidiaries' total claim rate must be positive")
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

