"""Exact exponential-polynomial mixtures.

An :class:`ExpMix` represents ``f(x) = sum_j w_j x^{k_j} e^{rho_j x}`` with
real weights and rates and small integer powers (every root of kappa = q is
real, see ``model.root_set``).  The class is closed under differentiation,
definite antidifferentiation from 0, scaling and sums, which is everything the
scale-function calculus needs; no gridding anywhere.

The terms (rho, k) are a basis and the weights w a row on it, three read-only
arrays.  ``derivative``, ``antiderivative``, ``scaled``, ``+`` and ``-`` give
rows on the same ``rho`` and ``k`` arrays, appending a term only where the
basis lacks one, so a scale context lays out one basis for all its mixtures.
``__call__``, the one evaluator, takes a whole array of x (a scalar x comes
back as a float) and skips zero weights: 0 * e^{rho x} never overflows to NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# rates closer than this are treated as confluent (the x * e^{rho x} limit);
# model roots are kept at least 1e-8 apart upstream, so this never conflates
# genuinely distinct terms
_MERGE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ExpMix:
    """Finite mixture ``sum w * x^k * exp(rho * x)``.

    ``w`` and ``rho`` are float64 arrays and ``k`` an integer array with
    ``k >= 0``, one entry per term.  A constant offset is a ``(w, 0, 0)`` term.
    """

    w: np.ndarray
    rho: np.ndarray
    k: np.ndarray

    def __post_init__(self):
        for a in (self.w, self.rho, self.k):
            a.setflags(write=False)

    @classmethod
    def build(cls, terms) -> "ExpMix":
        """Normalize ``(w, rho, k)`` triples: merge equal (rho, k), drop zero weights."""
        f = cls(np.zeros(0), np.zeros(0), np.zeros(0, int)).row(terms)
        keep = f.w != 0
        return cls(f.w[keep], f.rho[keep], f.k[keep])

    def row(self, terms) -> "ExpMix":
        """The sum of ``(w, rho, k)`` terms, in input order, as a row on this basis: a term
        joins the first of its power with a rate within the tolerance, or is appended."""
        rho, k = self.rho.tolist(), self.k.tolist()
        w = [0.0] * len(rho)
        for wt, r, j in terms:
            i = next((i for i, (r0, j0) in enumerate(zip(rho, k))
                      if j0 == j and abs(r0 - r) <= _MERGE_TOL * (1.0 + abs(r))), len(rho))
            if i == len(rho):
                rho, k, w = rho + [float(r)], k + [int(j)], w + [0.0]
            w[i] += wt
        if len(rho) == self.rho.size:
            return ExpMix(np.array(w, dtype=float), self.rho, self.k)
        return ExpMix(np.array(w, dtype=float), np.array(rho, dtype=float), np.array(k))

    def terms(self):
        """The (w, rho, k) terms with a nonzero weight, in basis order."""
        return [t for t in zip(self.w.tolist(), self.rho.tolist(), self.k.tolist()) if t[0]]

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
        """d/dx, exact: w x^k e^{rho x} -> w rho x^k e^{rho x} + w k x^{k-1} e^{rho x}."""
        out = [(w * rho, rho, k) for w, rho, k in self.terms()]
        out += [(w * k, rho, k - 1) for w, rho, k in self.terms() if k]
        return self.row(out)

    def antiderivative(self) -> "ExpMix":
        """F with F' = self and F(0) = 0, exact: x^k integrates to x^{k+1}/(k+1), and
        x^k e^{rho x} by parts, to x^k e^{rho x}/rho - (k/rho) int x^{k-1} e^{rho x}."""
        out = []
        for w, rho, k in self.terms():
            if abs(rho) <= _MERGE_TOL:
                out.append((w / (k + 1), 0.0, k + 1))
                continue
            coeff = w / rho
            out.append((coeff, rho, k))
            for j in range(k, 0, -1):
                coeff = -coeff * j / rho
                out.append((coeff, rho, j - 1))
            out.append((-coeff, 0.0, 0))   # the value at 0 (only the k = 0 term has one)
        return self.row(out)

    def scaled(self, factor: float) -> "ExpMix":
        return ExpMix(self.w * factor, self.rho, self.k)

    def __add__(self, other) -> "ExpMix":
        """Pointwise sum, as a row on this basis; a number adds a constant."""
        more = other.terms() if isinstance(other, ExpMix) else [(other, 0.0, 0)]
        return self.row(self.terms() + more)

    def __sub__(self, other: "ExpMix") -> "ExpMix":
        return self + other.scaled(-1.0)
