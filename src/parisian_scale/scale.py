"""Scale-function family, classical and Parisian, as exact exponential mixtures.

Everything here is built from the partial-fraction inversion of the first
scale function,

    W_q(x) = sum_j e^{theta_j x} / kappa'(theta_j),

the theta_j being the roots of kappa(theta) = q, all of them real (see
``model.root_set``), so every mixture here has float weights and rates.  The
second scale function and its relatives are exact Dickson-Hipp transforms of
W_q; Z_q(., theta) and the Parisian Z_{q,r}(., theta) weight W_q's terms by the
root slopes (kappa(theta) - q)/(theta - theta_j), read off the factored
kappa, so no quotient of theirs has a singularity to remove.

For a rational kappa all of them are mixtures over the roots of kappa = q
and the powers 1, x and x^2 (x^2 carries weight only when a root is 0 or
within 1e-10 of it).  ``ExpMix.build`` lays out that basis once, when
``build_scale`` makes W_q; every other mixture of a context is a row of
weights on it, never with a term appended, computed when first read and kept
(per theta or penalty in the context's memo).  Only this module
makes mixtures; the laws and the control layer read them from the context
(``ctx.W``, ``pctx.dS``, ``ctx.Z(theta)``) and call them on a float or an
array of x >= 0.  Both contexts hand out the same scale pair: ``W``, ``dW``,
``Wbar`` and ``Z(theta, d)`` are W_q and Z_q(., theta) on a ``ScaleContext``
and W_{q,r} and Z_{q,r}(., theta) on a ``ParisianContext``, so one law serves
both.  The classical Z_q(., theta) is, with its exterior value e^{theta x}
on x <= 0, the Gerber-Shiu function of ``Exponential(theta)``; only the
Parisian Z takes theta = INF, where it is W_{q,r}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, QZero, UnsupportedPenalty
from .expmix import ExpMix
from .model import (
    _THETA_MAX,
    LevyModel,
    kappa_slope,
    laplace_exponent_deriv,
    phi,
    root_set,
)

INF = math.inf


def _memo(ctx, key, make):
    """The context's mixture for ``key``, built by ``make`` on first use."""
    mix = ctx._memo.get(key)
    if mix is None:
        mix = ctx._memo[key] = make()
    return mix


def piecewise(x, inside, f, g):
    """f(x) where ``inside`` holds and g(x) elsewhere; a scalar x gives a float."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    out[inside] = f(x[inside])
    if not np.all(inside):          # g can cost even on no points: V(b) in Barrier.value
        out[~inside] = g(x[~inside])
    return float(out) if out.ndim == 0 else out


def _check_theta(theta):
    if not 0 <= theta < _THETA_MAX:
        raise DomainError(f"theta must be nonnegative and below {_THETA_MAX:g}, got {theta}")


@dataclass(frozen=True)
class ScaleContext:
    """(model, q) with the roots and the W_q family as rows on W's basis.

    W' (dW), Wbar, Z_q = 1 + q Wbar (Z0), Zbar and Z_{1,q} = Zbar - p Wbar (Z1) are
    computed on first use and kept.
    """

    model: LevyModel
    q: float
    roots: tuple[float, ...]
    phi_q: float
    W: ExpMix
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    dW = cached_property(lambda self: self.W.derivative())
    Wbar = cached_property(lambda self: self.W.antiderivative())
    Z0 = cached_property(lambda self: self.Wbar.scaled(self.q) + 1.0)
    Zbar = cached_property(lambda self: self.Z0.antiderivative())
    Z1 = cached_property(lambda self: self.Zbar - self.Wbar.scaled(self.model.drift))

    def Z(self, theta: float, d: int = 0):
        """Z_q(., theta), the Gerber-Shiu function of Exponential(theta), or the d-th
        x-derivative of its mixture (see ``_z``); theta must be finite."""
        return _z(self, theta, d, lambda: build_gerber_shiu(self, Exponential(theta)))


@dataclass(frozen=True)
class ParisianContext:
    """(model, q, r) with the Phi_{q+r} ingredient of the Parisian pair.

    W_{q,r} = Z_q(., Phi_{q+r}) (W), W'_{q,r} (dW), Wbar_{q,r} (Wbar), Z_{q,r}(., theta)
    with its x-derivatives (Z) and the bailout ingredient
    S(x) = r/(q+r) (Zbar_q(x) + kappa'(0+)/q)
    with S' (S, dS; q > 0 only) are computed on first use and kept.
    """

    model: LevyModel
    q: float
    r: float
    base: ScaleContext
    phi_qr: float
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    W = cached_property(lambda self: z_mix(self.base, self.phi_qr))
    dW = cached_property(lambda self: self.Z(INF, 1))
    Wbar = cached_property(lambda self: self.W.antiderivative())

    def Z(self, theta: float, d: int = 0) -> ExpMix:
        """Z_{q,r}(., theta) or its d-th x-derivative as a mixture; theta = INF gives W_{q,r}.

        Z_{q,r} = (r Z_q(., theta) + (q - kappa(theta)) W_{q,r}) / (q + r - kappa(theta)) has
        the weights r w_j kappa[theta, rho_j] / ((Phi_{q+r} - rho_j) kappa[theta, Phi_{q+r}]),
        since q + r - kappa(theta) = (Phi_{q+r} - theta) kappa[theta, Phi_{q+r}]; that slope is
        positive for every theta >= 0 (kappa is convex and kappa(0) = 0 < q + r), so theta =
        Phi_{q+r} needs no limit.
        """
        def make():
            z = z_mix(self.base, theta)     # Phi_{q+r} lies above every root, 0 included
            scale = self.r / kappa_slope(self.model, theta, self.phi_qr)
            return z.with_weights(scale * z.w / (self.phi_qr - z.rho))
        return _z(self, theta, d, lambda: self.W if theta == INF else _memo(self, (theta, 0), make))

    def _bailout_share(self):
        """r/(q+r), the factor of S, which divides by q: q <= 0 raises QZero."""
        if self.q <= 0:
            raise QZero("the bailout ingredient S requires q > 0")
        return self.r / (self.q + self.r)

    @cached_property
    def S(self):
        share = self._bailout_share()
        return (self.base.Zbar + self.model.drift / self.q).scaled(share)

    dS = cached_property(lambda self: self.base.Z0.scaled(self._bailout_share()))


def _z(ctx, theta: float, d: int, z):
    """ctx.Z(theta, d) of either context: z() at d = 0, each further d the kept derivative."""
    if not (isinstance(d, int) and d >= 0):
        raise DomainError(f"the derivative order d must be a nonnegative integer, got {d!r}")
    if d == 0:
        return z()
    return _memo(ctx, (theta, d), lambda: ctx.Z(theta, d - 1).derivative())


def build_scale(model: LevyModel, q: float) -> ScaleContext:
    """Assemble the partial-fraction form of W_q on the context's basis."""
    roots = tuple(root_set(model, q))
    W = ExpMix.build([(1.0 / laplace_exponent_deriv(model, rho), rho) for rho in roots])
    return ScaleContext(model=model, q=float(q), roots=roots, phi_q=roots[0], W=W)


def build_parisian(model: LevyModel, q: float, r: float) -> ParisianContext:
    if not 0 < r < INF:
        raise DomainError(f"Parisian observation rate r must be finite and positive, got {r}")
    base = build_scale(model, q)
    return ParisianContext(model=model, q=float(q), r=float(r), base=base, phi_qr=phi(model, q + r))


def _root_slopes(ctx: ScaleContext, theta: float) -> list[float]:
    """kappa[theta, rho_j] = (kappa(theta) - q)/(theta - rho_j) for each root rho_j of kappa = q.

    With its poles cleared, kappa(theta) - q = a prod_k (theta - rho_k) / prod_i (mu_i + theta)
    over all the roots, a = sigma2/2 (or c when sigma2 = 0), so the j-th slope is that product
    with the j-th factor left out: no difference of kappa values, and at theta = rho_j the
    slope is kappa'(rho_j).  Each theta - rho_k is divided by a pole's mu_i + theta, which
    keeps every partial product near 1 for large theta.
    """
    m = ctx.model
    gaps = [theta - rho for rho in ctx.roots]
    poles = [mu + theta for _, mu in m.phases]
    slopes = []
    for j in range(len(gaps)):
        s = 0.5 * m.sigma2 if m.sigma2 > 0 else m.c
        others = gaps[:j] + gaps[j + 1:]
        for gap, pole in zip(others, poles):
            s *= gap / pole
        for gap in others[len(poles):]:     # sigma2 > 0: one root more than poles
            s *= gap
        slopes.append(s)
    return slopes


def z_mix(ctx: ScaleContext, theta: float) -> ExpMix:
    """Z_q(., theta) on x >= 0 as an exponential mixture.

    Since int_0^inf e^{-theta y} W_q(y) dy = 1 / (kappa(theta) - q) as
    rational functions, the e^{theta x} coefficient vanishes identically
    and Z_q(x, theta) = sum_j w_j kappa[theta, rho_j] e^{rho_j x}, with the
    root slopes kappa[theta, rho_j] = (kappa(theta) - q)/(theta - rho_j) of
    ``_root_slopes``, which have no singularity at theta = rho_j.  The
    pure-mixture form stays stable for large theta, where any rounding
    residue on e^{theta x} would be catastrophic.
    """
    _check_theta(theta)

    def make():
        n = len(ctx.roots)
        w = np.zeros(ctx.W.w.size)      # a row on W's basis, whose roots lead it
        w[:n] = ctx.W.w[:n] * _root_slopes(ctx, theta)
        return ctx.W.with_weights(w)
    return _memo(ctx, ("Z", theta), make)


# ---------------------------------------------------------------------------
# Penalty specifications and the smooth Gerber-Shiu assembly
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Exponential:
    """w(x) = e^{theta x} on x <= 0."""

    theta: float


def _finite_coefficients(penalty):
    if not all(map(math.isfinite, vars(penalty).values())):
        raise DomainError(f"the penalty's coefficients must be finite, got {penalty}")


@dataclass(frozen=True)
class Linear:
    """w(x) = k x + K on x <= 0."""

    k: float
    K: float
    __post_init__ = _finite_coefficients


@dataclass(frozen=True)
class Constant:
    """w(x) = K on x <= 0."""

    K: float
    __post_init__ = _finite_coefficients


PenaltySpec = Exponential | Linear | Constant


@dataclass(frozen=True)
class GerberShiu:
    """Smooth harmonic function fitting an exterior penalty w.

    Evaluates the closed-form mixture on x > 0 and the penalty itself on
    x <= 0; ``dmix``, also ``derivative()``, is the exact x-derivative of the interior part.
    """

    penalty: PenaltySpec
    mix: ExpMix

    dmix = cached_property(lambda self: self.mix.derivative())

    def derivative(self):
        return self.dmix

    def __call__(self, x):
        return piecewise(x, np.asarray(x) > 0, self.mix, self.penalty_value)

    def penalty_value(self, x):
        w = self.penalty
        if isinstance(w, Exponential):
            return np.exp(w.theta * x)
        if isinstance(w, Linear):
            return w.k * x + w.K
        return np.full(np.shape(x), w.K)


def build_gerber_shiu(ctx: ScaleContext, penalty: PenaltySpec) -> GerberShiu:
    """Closed-form Gerber-Shiu function for the supported penalty family."""
    def make():
        if isinstance(penalty, Exponential):
            mix = z_mix(ctx, penalty.theta)
        elif isinstance(penalty, Linear):
            mix = ctx.Z1.scaled(penalty.k) + ctx.Z0.scaled(penalty.K)
        elif isinstance(penalty, Constant):
            mix = ctx.Z0.scaled(penalty.K)
        else:
            raise UnsupportedPenalty(f"penalty {penalty!r} has no closed form here")
        return GerberShiu(penalty=penalty, mix=mix)
    return _memo(ctx, penalty, make)
