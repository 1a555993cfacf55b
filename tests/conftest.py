import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

from parisian_scale import LevyModel, build_parisian, build_scale, phi
from parisian_scale.expmix import ExpMix


@pytest.fixture(scope="session")
def m1():
    """Unit-premium compound Poisson model with Exp(2) claims."""
    return LevyModel(c=1.0, sigma2=0.0, lam=1.0, phases=((1.0, 2.0),))


@pytest.fixture(scope="session")
def m2():
    """Driftless Brownian motion with variance 2 (kappa(theta) = theta^2)."""
    return LevyModel(c=0.0, sigma2=2.0, lam=0.0, phases=())


@pytest.fixture(scope="session")
def m1_q0(m1):
    return build_scale(m1, 0.0)


@pytest.fixture(scope="session")
def m1_q23(m1):
    return build_scale(m1, 2.0 / 3.0)


@pytest.fixture(scope="session")
def m2_q1(m2):
    return build_scale(m2, 1.0)


@pytest.fixture(scope="session")
def m1_par(m1):
    """q=2/3, r=1/3 so that q+r=1 and Phi_1 = 1."""
    return build_parisian(m1, 2.0 / 3.0, 1.0 / 3.0)


@pytest.fixture(scope="session")
def m1_par_sym(m1):
    """q=r=1/3 with efficiency threshold exactly 4."""
    return build_parisian(m1, 1.0 / 3.0, 1.0 / 3.0)


@pytest.fixture(scope="session")
def m2_par(m2):
    """q=1, r=3 so Phi_4 = 2 and W_{1,3} = (3 e^x - e^{-x})/2."""
    return build_parisian(m2, 1.0, 3.0)


@pytest.fixture()
def build_calls(monkeypatch):
    """A list that grows by one entry on every ExpMix.build."""
    calls = []
    build = ExpMix.build.__func__
    monkeypatch.setattr(ExpMix, "build",
                        classmethod(lambda cls, terms: calls.append(1) or build(cls, terms)))
    return calls


@pytest.fixture()
def python_child():
    """Run python with the given arguments on this tree, with a timeout, so that a loop
    that never ends fails instead of hanging the suite."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    return lambda args: subprocess.run([sys.executable, *args], capture_output=True, text=True,
                                       timeout=60, env=env)


@pytest.fixture(scope="session")
def mp_threshold():
    """The efficiency threshold k(q, r) at 60 digits, from mpmath's root of kappa = q + r
    next to the library's Phi_{q+r}."""
    def threshold(model, q, r):
        with mp.workdps(60):
            q, r = mp.mpf(q), mp.mpf(r)

            def kappa(t):
                jump = mp.fsum(mp.mpf(p) / (mu + t) for p, mu in model.phases)
                return model.sigma2 / mp.mpf(2) * t * t + model.c * t - model.lam * t * jump
            ph = mp.findroot(lambda t: kappa(t) - q - r, mp.mpf(phi(model, float(q + r))))
            w0 = 0 if model.sigma2 > 0 else 1 / mp.mpf(model.c)
            return float((1 + q / r) * (ph - r * w0) / (ph - (q + r) * w0))
    return threshold
