"""Exception hierarchy for the toolkit."""


class ParisianScaleError(Exception):
    """Base class for all toolkit errors."""


class ModelError(ParisianScaleError):
    """Invalid model specification."""


class PoleAtTheta(ParisianScaleError):
    """Laplace exponent evaluated at (or too close to) a pole."""


class DegenerateRoots(ParisianScaleError):
    """Two roots of kappa(theta)=q coincide; exponential-mixture form breaks down."""


class DomainError(ParisianScaleError, ValueError):
    """Argument outside the documented domain (e.g. x not in [a, b])."""


class QZero(ParisianScaleError):
    """Operation undefined at q = 0."""


class NonpositiveDrift(ParisianScaleError):
    """Operation requires strictly positive drift."""


class UnsupportedPenalty(ParisianScaleError):
    """Penalty not in the exponential/linear/constant closed-form family."""


class NoSolution(ParisianScaleError):
    """Bisection cap reached without finding a solution."""


class SigmaUnsupported(ParisianScaleError):
    """Monte-Carlo engine only handles finite-variation models (sigma = 0)."""


class HorizonRequired(ParisianScaleError):
    """Infinite-horizon functional needs a truncation horizon."""


class NotCheap(ParisianScaleError):
    """Network policy undefined without the cheap-reinsurance condition."""


class RetentionOutOfRange(ParisianScaleError):
    """Retention level outside (0, 1)."""
