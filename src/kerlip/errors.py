"""Exception hierarchy shared across the package."""


class KerlipError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(KerlipError, ValueError):
    """An argument violates a documented precondition."""


class UnsupportedDistributionError(KerlipError):
    """The requested distribution family has no sampler / quadrature rule."""


class HypothesisViolationError(KerlipError):
    """The inputs do not satisfy the mathematical hypotheses of the formula."""


class NumericalFailureError(KerlipError):
    """A numerical check failed (e.g. negative curvature or a NaN objective)."""


class InvalidConfigurationError(KerlipError):
    """An experiment or CLI configuration is invalid."""


class ExperimentIOError(KerlipError, OSError):
    """Experiment output could not be written (or rows were empty)."""
