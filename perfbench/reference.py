"""Independent high-precision reference for the scale functions and laws.

Nothing here calls the library.  The roots of kappa(theta) = q come from
``mpmath.polyroots`` on the numerator of the rational Laplace exponent, and
every function is evaluated from its defining formula:

    W_q(x)        = sum_j e^{rho_j x} / kappa'(rho_j)
    Z_q(x, theta) = e^{theta x} (1 + (q - kappa(theta)) int_0^x e^{-theta y} W_q(y) dy)
    W_{q,r}(x)    = Z_q(x, Phi_{q+r})
    Z_{q,r}(x, t) = (r Z_q(x, t) + (q - kappa(t)) W_{q,r}(x)) / (q + r - kappa(t))

The working precision grows with the largest exponent that a formula forms
(|rate| times the largest argument), so the cancellation in
Z(x) - W(x) F(b) / G(b) at large b is resolved rather than inherited.
"""

from __future__ import annotations

import math

import mpmath as mp

BASE_DPS = 30


class Model:
    """Hyperexponential Cramer-Lundberg model with a Brownian part, in mpmath."""

    def __init__(self, c, sigma2, lam, phases):
        self.c = mp.mpf(c)
        self.sigma2 = mp.mpf(sigma2)
        self.lam = mp.mpf(lam)
        self.phases = [(mp.mpf(p), mp.mpf(mu)) for p, mu in phases]
        self.drift = self.c - self.lam * sum((p / mu for p, mu in self.phases), mp.mpf(0))

    @classmethod
    def from_dict(cls, raw):
        return cls(raw["c"], raw.get("sigma2", 0.0), raw.get("lambda", 0.0),
                   [(ph["weight"], ph["rate"]) for ph in raw.get("phases", [])])

    def kappa(self, t):
        jump = sum((p * t / (mu + t) for p, mu in self.phases), mp.mpf(0))
        return self.sigma2 / 2 * t * t + self.c * t - self.lam * jump

    def kappa1(self, t):
        jump = sum((p * mu / (mu + t) ** 2 for p, mu in self.phases), mp.mpf(0))
        return self.sigma2 * t + self.c - self.lam * jump

    def numerator(self, s):
        """Coefficients (highest degree first) of (kappa(t) - s) prod(mu_i + t)."""
        def mul(a, b):
            out = [mp.mpf(0)] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return out

        def add(a, b):
            n = max(len(a), len(b))
            a = [mp.mpf(0)] * (n - len(a)) + a
            b = [mp.mpf(0)] * (n - len(b)) + b
            return [x + y for x, y in zip(a, b)]

        prod_all = [mp.mpf(1)]
        for _, mu in self.phases:
            prod_all = mul(prod_all, [mp.mpf(1), mu])
        poly = mul([self.sigma2 / 2, self.c, -mp.mpf(s)], prod_all)
        for i, (p, _) in enumerate(self.phases):
            others = [mp.mpf(1)]
            for j, (_, mu) in enumerate(self.phases):
                if j != i:
                    others = mul(others, [mp.mpf(1), mu])
            poly = add(poly, mul([-self.lam * p, mp.mpf(0)], others))
        while poly and poly[0] == 0:
            poly = poly[1:]
        return poly

    def roots(self, s):
        """All roots of kappa(t) = s; the root at 0 is exact when s = 0."""
        poly = self.numerator(s)
        if s == 0:
            poly = poly[:-1]            # divide out the exact root t = 0
        found = list(mp.polyroots(poly, maxsteps=400, extraprec=4 * mp.mp.prec))
        if s == 0:
            found.append(mp.mpf(0))
        return found

    def phi(self, s):
        """Largest real root of kappa(t) = s."""
        return max(mp.re(r) for r in self.roots(s))


def _e1(a, x):
    """int_0^x e^{a y} dy."""
    if a == 0:
        return x
    return mp.expm1(a * x) / a


def _e2(a, x):
    """int_0^x int_0^y e^{a u} du dy."""
    if a == 0:
        return x * x / 2
    return (_e1(a, x) - x) / a


class Scale:
    """W_q, Z_q and friends for one (model, q) at the current precision."""

    def __init__(self, model: Model, q):
        self.m = model
        self.q = mp.mpf(q)
        self.rho = model.roots(self.q)
        self.res = [1 / model.kappa1(r) for r in self.rho]
        self.phi = max(mp.re(r) for r in self.rho)

    def W(self, x, d=0):
        return mp.re(sum(c * r ** d * mp.exp(r * x) for c, r in zip(self.res, self.rho)))

    def Wbar(self, x):
        return mp.re(sum(c * _e1(r, x) for c, r in zip(self.res, self.rho)))

    def Z0(self, x):
        return 1 + self.q * self.Wbar(x)

    def Zbar(self, x):
        return x + self.q * mp.re(sum(c * _e2(r, x) for c, r in zip(self.res, self.rho)))

    def laplace_w(self, t, x):
        """int_0^x e^{-t y} W_q(y) dy."""
        return mp.re(sum(c * _e1(r - t, x) for c, r in zip(self.res, self.rho)))

    def Z(self, x, t):
        if x <= 0:
            return mp.exp(t * x)
        return mp.exp(t * x) * (1 + (self.q - self.m.kappa(t)) * self.laplace_w(t, x))

    def dZ(self, x, t):
        """d/dx Z_q(x, t) = t Z_q(x, t) + (q - kappa(t)) W_q(x)."""
        return t * self.Z(x, t) + (self.q - self.m.kappa(t)) * self.W(x)

    def Zint(self, x, t):
        """int_0^x Z_q(y, t) dy."""
        kq = self.q - self.m.kappa(t)
        acc = _e1(t, x)
        for c, r in zip(self.res, self.rho):
            # int_0^x e^{t y} (e^{(r-t) y} - 1)/(r - t) dy
            d = r - t
            if d == 0:
                acc += kq * c * mp.re(x * mp.exp(t * x) / t - _e1(t, x) / t if t != 0 else x * x / 2)
            else:
                acc += kq * c * mp.re((_e1(r, x) - _e1(t, x)) / d)
        return acc


class Parisian:
    """W_{q,r}, Z_{q,r} and the bailout ingredient S for one (model, q, r)."""

    def __init__(self, model: Model, q, r):
        self.base = Scale(model, q)
        self.m = model
        self.q = mp.mpf(q)
        self.r = mp.mpf(r)
        self.phi_qr = model.phi(self.q + self.r)

    def W(self, x):
        return self.base.Z(x, self.phi_qr)

    def dW(self, x):
        return self.base.dZ(x, self.phi_qr)

    def Wbar(self, x):
        return self.base.Zint(x, self.phi_qr)

    def _weights(self, t):
        k = self.m.kappa(t)
        den = self.q + self.r - k
        if abs(den) < mp.mpf(10) ** (-mp.mp.dps // 2) * (self.q + self.r):
            raise ValueError("theta sits on Phi_{q+r}; the reference does not take that limit")
        return self.r / den, (self.q - k) / den

    def Z(self, x, t):
        if t == math.inf:
            return self.W(x)
        a, b = self._weights(t)
        return a * self.base.Z(x, t) + b * self.W(x)

    def dZ(self, x, t):
        if t == math.inf:
            return self.dW(x)
        a, b = self._weights(t)
        return a * self.base.dZ(x, t) + b * self.dW(x)

    def S(self, x, d=0):
        f = self.r / (self.q + self.r)
        if d == 0:
            return f * (self.base.Zbar(x) + self.m.drift / self.q)
        return f * self.base.Z0(x)


def _mpf(v):
    return math.inf if v == math.inf else mp.mpf(v)


def law(name, sc: Scale | None, pc: Parisian | None, x, b, theta, vartheta, r=None):
    """Value of one CLI law at x (the CLI's argument conventions)."""
    x, b, th, vt = mp.mpf(x), mp.mpf(b), _mpf(theta), mp.mpf(vartheta)
    if name == "two_sided":
        return sc.W(x) / sc.W(b)
    if name == "severity_absorbed":
        return sc.Z(x, th) - sc.W(x) * sc.Z(b, th) / sc.W(b)
    if name == "severity_reflected":
        return sc.Z(x, th) - sc.W(x) * sc.dZ(b, th) / sc.W(b, 1)
    if name == "severity_infinite":
        return sc.Z(x, th) - sc.W(x) * (sc.m.kappa(th) - sc.q) / (th - sc.phi)
    if name == "bailouts_to_level":
        return sc.Z(x, th) / sc.Z(b, th)
    if name == "dividends_penalty":
        num = sc.dZ(b, th) + vt * sc.Z(b, th)
        den = sc.W(b, 1) + vt * sc.W(b)
        return sc.Z(x, th) - sc.W(x) * num / den
    if name == "time_in_red":
        rr = mp.mpf(r)
        phi_r = sc.m.phi(rr)
        return sc.m.drift * phi_r / rr * sc.Z(x, phi_r)
    if name == "parisian_up_exit":
        return pc.Z(x, th) / pc.Z(b, th)
    if name == "parisian_severity":
        return pc.Z(x, th) - pc.W(x) / pc.W(b) * pc.Z(b, th)
    if name == "parisian_resolvent_integral":
        return pc.W(x) * pc.Wbar(b) / pc.W(b) - pc.Wbar(x)
    if name == "parisian_dividends_penalty":
        num = pc.dZ(b, th) + vt * pc.Z(b, th)
        den = pc.dW(b) + vt * pc.W(b)
        return pc.Z(x, th) - pc.W(x) * num / den
    raise KeyError(name)


def value(name, sc: Scale, pc: Parisian | None, x, b, theta, k, K):
    """Value of one CLI barrier objective at x in [0, b]."""
    x, b, th, k, K = (mp.mpf(v) for v in (x, b, theta, k, K))
    q, p = sc.q, sc.m.drift
    if name == "vf_dividends_classic":
        return sc.W(x) / sc.W(b, 1)
    if name == "value_definetti":
        # penalty w(y) = k y + K below 0: S_w = k (Zbar - p Wbar) + K Z
        sw = k * (sc.Zbar(x) - p * sc.Wbar(x)) + K * sc.Z0(x)
        dsw_b = k * (sc.Z0(b) - p * sc.W(b)) + K * q * sc.W(b)
        return sw + sc.W(x) * (1 - dsw_b) / sc.W(b, 1)
    if name == "value_slg_classic":
        return k * (sc.Zbar(x) + p / q) + sc.Z0(x) * (1 - k * sc.Z0(b)) / (q * sc.W(b))
    if name == "VF_div":
        return pc.W(x) / pc.dW(b)
    if name == "VF_bail":
        return pc.Z(x, 0) * pc.S(b) / pc.Z(b, 0) - pc.S(x)
    if name == "VS_div":
        return pc.Z(x, 0) / pc.dZ(b, 0)
    if name == "VS_div_theta":
        return pc.Z(x, th) / pc.dZ(b, th)
    if name == "VS_bail":
        return pc.Z(x, 0) * pc.S(b, 1) / pc.dZ(b, 0) - pc.S(x)
    if name == "slg_parisian":
        return k * pc.S(x) + pc.Z(x, 0) * (1 - k * pc.S(b, 1)) / pc.dZ(b, 0)
    raise KeyError(name)


def scale_row(sc: Scale, pc: Parisian | None, x, theta):
    """The columns of ``parisian-scale scale`` at one x."""
    x = mp.mpf(x)
    row = {"W": sc.W(x), "W_prime": sc.W(x, 1), "W_bar": sc.Wbar(x),
           "Z": sc.Z0(x), "Z_bar": sc.Zbar(x)}
    if theta is not None:
        row["Z_theta"] = sc.Z(x, mp.mpf(theta))
    if pc is not None:
        row.update(W_qr=pc.W(x), Z_qr=pc.Z(x, 0), scriptS=pc.S(x))
    return row


def brownian_row(sigma2, q, x):
    """Exact sinh/cosh forms for driftless Brownian motion, kappa = sigma2 t^2 / 2."""
    s, q, x = mp.mpf(sigma2), mp.mpf(q), mp.mpf(x)
    f = mp.sqrt(2 * q / s)
    return {"W": 2 * mp.sinh(f * x) / (s * f), "W_prime": 2 * mp.cosh(f * x) / s,
            "W_bar": 2 * (mp.cosh(f * x) - 1) / (s * f * f), "Z": mp.cosh(f * x),
            "Z_bar": mp.sinh(f * x) / f}


def threshold(model: Model, q, r):
    """Efficiency threshold k(q, r) from Phi_{q+r} (inf when the ratio is singular)."""
    q, r = mp.mpf(q), mp.mpf(r)
    w0 = 0 if model.sigma2 > 0 else 1 / model.c
    ph = model.phi(q + r)
    den = ph - (r + q) * w0
    if den <= 0:
        return mp.inf
    return (1 + q / r) * (ph - r * w0) / den


def barrier_G(kind, sc: Scale, pc: Parisian | None, b, k, K):
    """Barrier influence function G(b) of the three optimizer objectives."""
    b, k, K = mp.mpf(b), mp.mpf(k), mp.mpf(K)
    if kind == "deFinetti_classic":
        # constant penalty K: S_w = K Z_q, so S_w' = K q W_q
        return (1 - K * sc.q * sc.W(b)) / sc.W(b, 1)
    if kind == "SLG_classic":
        return (1 - k * sc.Z0(b)) / (sc.q * sc.W(b))
    if kind == "SLG_parisian":
        return (1 - k * pc.S(b, 1)) / pc.dZ(b, 0)
    raise KeyError(kind)
