"""Exception hierarchy shared across the package."""

__all__ = [
    "CompetingWeibullError",
    "SpecError",
    "DomainError",
    "ConfigError",
    "NumericError",
    "SingularHessianError",
    "MetricError",
]


class CompetingWeibullError(Exception):
    """Base class for all package-specific errors."""


class SpecError(CompetingWeibullError):
    """Invalid model specification, parameter shapes, or data layout."""


class DomainError(CompetingWeibullError):
    """Evaluation requested outside the mathematical domain (e.g. t < 0)."""


class ConfigError(CompetingWeibullError):
    """Invalid or unsatisfiable configuration (tolerances, cutoffs, calibration)."""


class NumericError(CompetingWeibullError):
    """A non-finite intermediate arose during a numeric computation."""


class SingularHessianError(NumericError):
    """Observed information matrix is numerically singular.

    ``null_directions`` lists the parameter labels with the largest weight in
    the near-null eigenvectors, which usually point at unidentifiable or
    eliminated groups.
    """

    def __init__(self, message: str, null_directions=()):
        super().__init__(message)
        self.null_directions = tuple(null_directions)


class MetricError(CompetingWeibullError):
    """Metric undefined for the given data (e.g. a degenerate ROC horizon)."""
