"""Exact exponential-polynomial mixtures on one fixed basis.

An :class:`ExpMix` represents ``f(x) = sum_j w_j x^{k_j} e^{rho_j x}`` with
real weights and rates and small integer powers (every root of kappa = q is
real, see ``model.root_set``).  ``ExpMix.build`` lays out the basis (rho, k)
once: the given rates at power 0, in the given order, then 1, x and x^2 at
rate 0, where a given rate of exactly 0 serves as the 1.  The weights w are a
row on it, and every mixture made from it is another row on the same ``rho``
and ``k`` arrays: ``derivative``, ``antiderivative``, ``scaled``, ``+`` and
``-`` are array maps on w, exact up to rounding, and no term is ever appended.
``__call__``, the one evaluator, takes a whole array of x (a scalar x comes
back as a float) and skips zero weights: 0 * e^{rho x} never overflows to NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# a rate this close to 0 integrates as a constant (at q = 1e-13 a root of kappa = q is 2e-13),
# where its 1/rho antiderivative weight would cancel against the 1's
_ZERO_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ExpMix:
    """Finite mixture ``sum w * x^k * exp(rho * x)`` on a basis laid out by ``build``.

    ``w`` and ``rho`` are float64 arrays and ``k`` an integer array, one entry
    per term; x and x^2 are the last two terms and ``one`` indexes the 1.
    """

    w: np.ndarray
    rho: np.ndarray
    k: np.ndarray
    one: int

    def __post_init__(self):
        for a in (self.w, self.rho, self.k):
            a.setflags(write=False)

    @classmethod
    def build(cls, terms) -> "ExpMix":
        """sum w e^{rho x} over the (w, rho) pairs, on the basis their rates lay out."""
        w, rho = (np.array(col, dtype=float) for col in zip(*terms))
        zero = np.flatnonzero(rho == 0)
        powers = np.arange(1 if zero.size else 0, 3)
        pad = np.zeros(powers.size)
        return cls(np.append(w, pad), np.append(rho, pad),
                   np.append(np.zeros(rho.size, int), powers),
                   int(zero[0]) if zero.size else rho.size)

    def with_weights(self, w) -> "ExpMix":
        """The mixture with weights w on this basis."""
        return ExpMix(np.asarray(w, dtype=float), self.rho, self.k, self.one)

    @cached_property
    def _live(self):
        live = self.w != 0
        return self.w[live], self.rho[live], self.k[live]

    def __call__(self, x):
        """Evaluate at real x (scalar or array)."""
        x = np.asarray(x, dtype=float)
        xs = x.reshape(1, -1)
        w, rho, k = self._live
        if not w.size:
            return 0.0 if x.ndim == 0 else np.zeros(x.shape)
        coef = w[:, None]
        if k.any():
            coef = coef * xs ** k[:, None]
        # sequential sum over the terms, so a point's value does not depend on the grid
        # it is evaluated in (np.cumsum's ufunc, without its wrapper's cost per call)
        val = np.add.accumulate(coef * np.exp(rho[:, None] * xs), axis=0)[-1]
        return float(val[0]) if x.ndim == 0 else val.reshape(x.shape)

    def derivative(self) -> "ExpMix":
        """d/dx, exact: e^{rho x} -> rho e^{rho x}, x -> 1 and x^2 -> 2x."""
        w = self.w * self.rho
        w[self.one] += self.w[-2]
        w[-2] += 2.0 * self.w[-1]
        return self.with_weights(w)

    def antiderivative(self) -> "ExpMix":
        """F with F' = self and F(0) = 0, exact: e^{rho x} -> (e^{rho x} - 1)/rho, 1 -> x and
        x -> x^2/2; e^{rho x} with |rho| <= 1e-10 integrates as 1, to x.  x^2 has no
        antiderivative on the basis."""
        if self.w[-1]:
            raise ValueError("x^3 is not on the basis")
        flat = (self.k == 0) & (np.abs(self.rho) <= _ZERO_TOL)     # the 1 and rates near 0
        exp = (self.k == 0) & ~flat
        c = self.w[exp] / self.rho[exp]
        w = np.zeros(self.w.size)
        w[exp] = c
        # sequential sums from 0.0 up: minus the c onto the 1, the flat weights onto x
        w[self.one] = np.add.accumulate(np.append(0.0, -c))[-1]
        w[-2] = np.add.accumulate(np.append(0.0, self.w[flat]))[-1]
        w[-1] = self.w[-2] / 2.0
        return self.with_weights(w)

    def scaled(self, factor: float) -> "ExpMix":
        return self.with_weights(self.w * factor)

    def __add__(self, other) -> "ExpMix":
        """Pointwise sum of two rows on this basis; a number adds a constant."""
        if not isinstance(other, ExpMix):
            w = self.w.copy()
            w[self.one] += other
            return self.with_weights(w)
        if other.rho is not self.rho:
            raise ValueError("the mixtures are rows on different bases")
        return self.with_weights(self.w + other.w)

    def __sub__(self, other: "ExpMix") -> "ExpMix":
        return self + other.scaled(-1.0)
