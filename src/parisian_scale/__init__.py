"""Numerics for spectrally negative Levy surplus processes.

Scale functions of Cramer-Lundberg models with hyperexponential claims
(and Brownian perturbation) in exact exponential-mixture form, the
first-passage, dividend and bailout laws built from them under classical
and Poisson-observed (Parisian) reflection, barrier optimization with an
efficiency index, and an exact event-driven Monte-Carlo oracle.
"""

from .errors import (
    DegenerateRoots,
    DomainError,
    HorizonRequired,
    ModelError,
    NoSolution,
    NonpositiveDrift,
    NotCheap,
    ParisianScaleError,
    PoleAtTheta,
    QZero,
    RetentionOutOfRange,
    SigmaUnsupported,
    UnsupportedPenalty,
)
from .model import LevyModel, laplace_exponent, laplace_exponent_deriv, phi, root_set
from .scale import (
    INF,
    Constant,
    Exponential,
    GerberShiu,
    Linear,
    ParisianContext,
    ScaleContext,
    build_gerber_shiu,
    build_parisian,
    build_scale,
)
from .laws import (
    parisian_resolvent,
    parisian_resolvent_integral,
    severity,
    severity_infinite,
    time_in_red,
    up_exit,
)
from .control import (
    Barrier,
    BarrierSolution,
    NetworkSpec,
    Subsidiary,
    barrier_function,
    definetti,
    efficiency_index,
    optimize_barrier,
    parisian_bailouts,
    parisian_dividends,
    slg_classic,
    slg_parisian,
    solve_patience,
)
from .mc import Functional, MCEstimate, PathConfig, estimate

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
