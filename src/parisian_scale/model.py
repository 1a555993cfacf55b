"""Spectrally negative Levy model with hyperexponential claims.

The surplus process is ``X(t) = x + c t + sigma B(t) - sum of claims``, where
claims arrive at rate ``lam`` and claim sizes follow the hyperexponential
density ``sum_i p_i mu_i exp(-mu_i y)``.  The Laplace exponent is

    kappa(theta) = sigma^2/2 theta^2 + c theta - lam theta sum_i p_i/(mu_i+theta)

which is rational, so the scale-function family has an exact finite
exponential-mixture form.  ``root_set`` finds the roots of kappa = s from
the polynomial numerator; ``phi`` finds the largest, Phi_s, by Newton's
method started at a closed-form upper bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateRoots, DomainError, ModelError, PoleAtTheta

_POLE_TOL = 1e-12
_ROOT_SEP_RTOL = 1e-8
_THETA_MAX = 1e154      # kappa squares theta


def read_field(raw, key: str, default=None, kind=float):
    """kind(raw[key]), or default if the key is absent; else a ModelError naming the key."""
    if not isinstance(raw, dict) or (key not in raw and default is None):
        raise ModelError(f"missing field {key!r}")
    value = raw.get(key, default)
    if kind is list and not isinstance(value, list):
        raise ModelError(f"field {key!r} is not a list: {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ModelError(f"field {key!r} is not a number: {value!r}") from None


def load_json(path: str, parse):
    """parse(the JSON in the file at path); a malformed file is a ModelError naming it."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ModelError(f"{path}: not valid JSON ({exc})") from None
    except ModelError as exc:
        raise ModelError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class LevyModel:
    """Finite-activity spectrally negative Levy model, immutable after construction.

    Parameters
    ----------
    c : premium (drift) rate.
    sigma2 : Gaussian variance coefficient; ``sigma2/2`` multiplies theta^2.
    lam : claim arrival intensity.
    phases : sequence of ``(weight, rate)`` pairs for the hyperexponential
        claim-size mixture; weights sum to 1, rates positive and distinct.
    """

    c: float
    sigma2: float = 0.0
    lam: float = 0.0
    phases: tuple[tuple[float, float], ...] = ()
    drift: float = field(init=False)

    def __post_init__(self):
        phases = tuple((float(p), float(m)) for p, m in self.phases)
        object.__setattr__(self, "phases", phases)
        # a NaN compares False everywhere, so it would pass every check below
        if not all(map(math.isfinite, (self.c, self.sigma2, self.lam, *sum(phases, ())))):
            raise ModelError("c, sigma2, lambda and the phase weights and rates must be finite")
        if self.sigma2 < 0:
            raise ModelError("sigma2 must be nonnegative")
        if self.lam < 0:
            raise ModelError("lam must be nonnegative")
        if self.lam > 0 and not phases:
            raise ModelError("positive claim intensity requires claim phases")
        if phases:
            weights = np.array([p for p, _ in phases])
            rates = np.array([m for _, m in phases])
            if abs(weights.sum() - 1.0) > 1e-12:
                raise ModelError(f"phase weights sum to {weights.sum()}, not 1")
            if np.any(weights <= 0) or np.any(weights > 1):
                raise ModelError("phase weights must lie in (0, 1]")
            if np.any(rates <= 0):
                raise ModelError("phase rates must be positive")
            for i in range(len(rates)):
                for j in range(i + 1, len(rates)):
                    if abs(rates[i] - rates[j]) <= 1e-9 * max(rates[i], rates[j]):
                        raise ModelError("phase rates must be pairwise distinct")
        if not (self.sigma2 > 0 or self.c > 0):
            raise ModelError("need sigma2 > 0 or c > 0")
        object.__setattr__(self, "drift", self.c - self.lam * self.mean_claim)

    @property
    def mean_claim(self) -> float:
        return sum((p / m for p, m in self.phases), 0.0)

    @classmethod
    def from_json(cls, path: str) -> "LevyModel":
        """Load a model from the documented JSON schema."""
        return load_json(path, cls.from_dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "LevyModel":
        """A model from the documented schema; a missing or invalid field is a ModelError."""
        return cls(
            c=read_field(raw, "c"),
            sigma2=read_field(raw, "sigma2", 0.0),
            lam=read_field(raw, "lambda", 0.0),
            phases=tuple((read_field(ph, "weight"), read_field(ph, "rate"))
                         for ph in read_field(raw, "phases", [], list)),
        )

    def to_dict(self) -> dict:
        return {
            "c": self.c,
            "sigma2": self.sigma2,
            "lambda": self.lam,
            "phases": [{"weight": p, "rate": m} for p, m in self.phases],
        }


def laplace_exponent(model: LevyModel, theta: float) -> float:
    """Evaluate kappa(theta); kappa(0) = 0."""
    for _, mu in model.phases:
        if abs(theta + mu) < _POLE_TOL:
            raise PoleAtTheta(f"theta = {theta} is a pole (rate {mu})")
    jump = sum(p / (mu + theta) for p, mu in model.phases)
    return 0.5 * model.sigma2 * theta**2 + model.c * theta - model.lam * theta * jump


def laplace_exponent_deriv(model: LevyModel, theta: float) -> float:
    """kappa'(theta)."""
    jump = sum(p * mu / (mu + theta) ** 2 for p, mu in model.phases)
    return model.sigma2 * theta + model.c - model.lam * jump


def kappa_slope(model: LevyModel, a: float, b: float) -> float:
    """kappa[a, b] = (kappa(a) - kappa(b))/(a - b), which is kappa'(a) at a = b.

    The divided difference of theta/(mu + theta) is mu/((mu + a)(mu + b)), so no
    difference of kappa values is formed.
    """
    jump = sum(p * mu / ((mu + a) * (mu + b)) for p, mu in model.phases)
    return 0.5 * model.sigma2 * (a + b) + model.c - model.lam * jump


def _kappa_poly(model: LevyModel, s: float) -> np.ndarray:
    """Ascending coefficients of (kappa(theta) - s) prod_i (mu_i + theta), trailing zeros
    trimmed, in numpy.polynomial's order of operations, so with its bits."""
    quad = np.trim_zeros(np.array([-s, model.c, 0.5 * model.sigma2]), "b")
    prod_all = np.ones(1)
    for _, mu in model.phases:
        prod_all = np.convolve(prod_all, [mu, 1.0])
    poly = np.convolve(quad, prod_all)
    for i, (p, _) in enumerate(model.phases):
        prod_others = np.ones(1)
        for j, (_, mu_j) in enumerate(model.phases):
            if j != i:
                prod_others = np.convolve(prod_others, [mu_j, 1.0])
        term = np.convolve([0.0, model.lam * p], prod_others)
        poly[:term.size] -= term
    return np.trim_zeros(poly, "b")


def phi(model: LevyModel, s: float) -> float:
    """Right inverse of kappa: the largest nonnegative root of kappa(theta) = s.

    Newton's method from u, the positive root of sigma2/2 u^2 + c u = s + lam.
    For theta >= 0 the claims take less than lam from kappa, so kappa(u) >= s
    and u >= Phi_s; kappa is convex and increasing on [Phi_s, u], so the
    iterates come down to Phi_s without crossing it.  They stop where rounding
    stops the descent, and one more Newton step follows.
    """
    if not 0 <= s < math.inf:
        raise DomainError(f"s must be finite and nonnegative, got {s}")
    if s == 0 and model.drift >= 0:
        return 0.0
    a, c, t = 0.5 * model.sigma2, model.c, s + model.lam
    u = 2.0 * t / (c + math.sqrt(c * c + 4.0 * a * t)) if c >= 0 else \
        (math.sqrt(c * c + 4.0 * a * t) - c) / (2.0 * a)
    if not (u < _THETA_MAX and math.isfinite(laplace_exponent(model, u))):
        raise DomainError(f"kappa(theta) = {s} has its root past kappa's overflow")
    theta = u
    while True:
        d = laplace_exponent_deriv(model, theta)
        # d rounds to 0 only next to a double root (zero drift, s -> 0), which theta then is
        step = (laplace_exponent(model, theta) - s) / d if d > 0 else 0.0
        if not theta - step < theta:
            break
        theta = max(theta - step, 0.0)      # rounding can carry a step past Phi_s >= 0
    return max(theta - step, 0.0)


def root_set(model: LevyModel, s: float) -> list[float]:
    """All roots of kappa(theta) = s, Newton-polished, Phi_s first.

    Every root is real: with its n poles -mu_i cleared, kappa - s has degree
    n + 1 (n + 2 if sigma2 > 0) and as many real roots, one between each two
    neighbouring poles, two on (-mu_min, inf), where kappa is convex and
    kappa(0) = 0 <= s, and, if sigma2 > 0, one below -mu_max.  So the real
    parts of the polynomial's roots are kept, and roots that do not alternate
    with the poles that way are DegenerateRoots, as are two that coincide.
    """
    if not 0 <= s < math.inf:
        raise DomainError(f"s must be finite and nonnegative, got {s}")
    poly = _kappa_poly(model, s)
    # a non-finite coefficient, or roots (by Cauchy's bound) too large to square
    bound = 1.0 + np.max(np.abs(poly[:-1])) / abs(poly[-1])
    if not bound < _THETA_MAX:
        raise DomainError(f"kappa(theta) = {s} overflows once its poles are cleared")
    roots = np.polynomial.polynomial.polyroots(poly).real + 0.0   # no -0.0, as Polynomial.roots
    polished = []
    for r in roots.tolist():
        for _ in range(3):
            f = laplace_exponent(model, r) - s
            d = laplace_exponent_deriv(model, r)
            if abs(d) < 1e-300:
                break
            step = f / d
            r = r - step
            if abs(step) < 1e-15 * (1.0 + abs(r)):
                break
        polished.append(r)
    scale = max(max(abs(r) for r in polished), 1.0)
    for i in range(len(polished)):
        for j in range(i + 1, len(polished)):
            if abs(polished[i] - polished[j]) < _ROOT_SEP_RTOL * scale:
                raise DegenerateRoots(
                    f"roots {polished[i]} and {polished[j]} coincide; perturb the model"
                )
    poles = sorted(-mu for _, mu in model.phases)
    first = 1 if model.sigma2 > 0 else 0     # the roots below each pole: first, first + 1, ...
    if np.searchsorted(sorted(polished), poles).tolist() != list(range(first, first + len(poles))):
        raise DegenerateRoots(f"roots {sorted(polished)} do not alternate with the poles {poles}")
    # the root nearest the polished phi value becomes that value
    phi_s = phi(model, s)
    idx = min(range(len(polished)), key=lambda k: abs(polished[k] - phi_s))
    return [phi_s] + polished[:idx] + polished[idx + 1:]
