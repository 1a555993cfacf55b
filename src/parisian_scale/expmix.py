"""Exact exponential-polynomial mixtures.

An :class:`ExpMix` represents ``f(x) = sum_j w_j x^{k_j} e^{rho_j x}`` with
complex weights/rates (in conjugate pairs, so the value is real on the real
axis) and small integer powers.  The class is closed under differentiation,
definite antidifferentiation from 0, multiplication by x and by e^{a x}, which
is everything the scale-function calculus needs; no gridding anywhere.

A mixture is compiled once into three read-only arrays (w, rho, k) and then
only evaluated: ``__call__`` is the one evaluator, and it takes a whole array
of x at once (a scalar x is a length-1 array that comes back as a float).
The algebra (``derivative``, ``antiderivative``, ``scaled``, ``+``) builds new
mixtures; the scale module calls it once per context, never per evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParisianScaleError

# rates closer than this are treated as confluent (the x * e^{rho x} limit);
# model roots are kept at least 1e-8 apart upstream, so this never conflates
# genuinely distinct terms
_IMAG_TOL = 1e-9
_MERGE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ExpMix:
    """Finite mixture ``sum w * x^k * exp(rho * x)``.

    ``w`` and ``rho`` are complex arrays and ``k`` an integer array with
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
        """Normalize ``(w, rho, k)`` triples: merge equal (rho, k), drop zero weights.

        Terms keep the order in which their (rho, k) first appears, and the
        weights of merged terms are added in input order.
        """
        t = np.asarray(terms, dtype=complex).reshape(-1, 3)
        w, rho, k = t[:, 0], t[:, 1], t[:, 2].real.astype(int)
        # each term joins the first earlier term of the same power within the tolerance
        same = (k[:, None] == k[None, :]) & (
            np.abs(rho[None, :] - rho[:, None]) <= _MERGE_TOL * (1.0 + np.abs(rho[:, None]))
        )
        first = same.argmax(axis=1) if len(w) else np.arange(0)
        while np.any(first[first] != first):
            first = first[first]
        acc = np.zeros(len(w), dtype=complex)
        np.add.at(acc, first, w)
        keep = np.unique(first)
        keep = keep[np.abs(acc[keep]) > 0.0]
        return cls(acc[keep], rho[keep], k[keep])

    @classmethod
    def constant(cls, value: float) -> "ExpMix":
        return cls.build([(value, 0.0, 0)])

    def __call__(self, x):
        """Evaluate at real x (scalar or array); imaginary parts must cancel."""
        x = np.asarray(x, dtype=float)
        xs = x.reshape(1, -1)
        if not self.w.size:
            return 0.0 if x.ndim == 0 else np.zeros(x.shape)
        coef = self.w[:, None]
        if self.k.any():
            coef = coef * xs ** self.k[:, None]
        # sequential sum over the terms, so a point's value does not depend on
        # the grid it is evaluated in
        val = np.cumsum(coef * np.exp(self.rho[:, None] * xs), axis=0)[-1]
        if np.any(np.abs(val.imag) > _IMAG_TOL * (1.0 + np.abs(val))):
            raise ParisianScaleError("conjugate pairing violated: imaginary residue")
        return float(val.real[0]) if x.ndim == 0 else val.real.reshape(x.shape)

    def _terms(self, w=None, rho=None, k=None):
        return np.column_stack([self.w if w is None else w, self.rho if rho is None else rho,
                                self.k if k is None else k])

    def derivative(self) -> "ExpMix":
        """d/dx, exact."""
        # w x^k e^{rho x} -> w rho x^k e^{rho x} + w k x^{k-1} e^{rho x}; the
        # second term has weight 0 (and is dropped) when k = 0
        pairs = np.stack([self._terms(w=self.w * self.rho),
                          self._terms(w=self.w * self.k, k=self.k - 1)], axis=1)
        return ExpMix.build(pairs.reshape(-1, 3))

    def antiderivative(self) -> "ExpMix":
        """F with F' = self and F(0) = 0, exact."""
        new = []
        for w, rho, k in zip(self.w.tolist(), self.rho.tolist(), self.k.tolist()):
            new.extend(_antider_term(w, rho, k))
        return ExpMix.build(new)

    def integral(self, x) -> float:
        """Definite integral over [0, x]."""
        return self.antiderivative()(x)

    def shift_rate(self, a: complex) -> "ExpMix":
        """Multiply by e^{a x}."""
        return ExpMix.build(self._terms(rho=self.rho + a))

    def mul_x(self) -> "ExpMix":
        """Multiply by x."""
        return ExpMix.build(self._terms(k=self.k + 1))

    def scaled(self, factor: complex) -> "ExpMix":
        return ExpMix.build(self._terms(w=self.w * factor))

    def __add__(self, other: "ExpMix") -> "ExpMix":
        return ExpMix.build(np.concatenate([self._terms(), other._terms()]))

    def __sub__(self, other: "ExpMix") -> "ExpMix":
        return self + other.scaled(-1.0)

    def dickson_hipp(self, theta: complex, x) -> float:
        """Truncated Laplace transform ``int_0^x e^{-theta y} f(y) dy``.

        The confluent case theta ~ rho_j is exact (the term integrates to a
        polynomial), not a numerical limit.
        """
        return self.shift_rate(-theta).integral(x)


def _antider_term(w: complex, rho: complex, k: int):
    """Terms of the antiderivative (vanishing at 0) of w x^k e^{rho x}."""
    if abs(rho) <= _MERGE_TOL:
        return [(w / (k + 1), 0.0, k + 1)]
    # integration by parts: int x^k e^{rho x} = x^k e^{rho x}/rho - (k/rho) int x^{k-1} e^{rho x}
    out = [(w / rho, rho, k)]
    coeff = w / rho
    for j in range(k, 0, -1):
        coeff = -coeff * j / rho
        out.append((coeff, rho, j - 1))
    # subtract the value at 0 (only the k=0 exponential term is nonzero at 0)
    out.append((-coeff, 0.0, 0))
    return out
