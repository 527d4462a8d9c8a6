"""Exception and warning types shared across the package."""

from __future__ import annotations

__all__ = [
    "CalibrationError",
    "ConfigError",
    "DtrError",
    "ExtremePropensityWarning",
    "FeatureScopeError",
    "InvalidParameterError",
    "NonConvergenceError",
    "ParseError",
    "SingularSystemError",
    "StudyError",
]


class DtrError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(DtrError, ValueError):
    """An argument violates a documented precondition."""


class SingularSystemError(DtrError):
    """A linear system is singular or numerically rank deficient.

    Carries ``diagnostic``, the smallest pivot magnitude relative to the
    matrix scale, so callers can report how close to singular the system was.
    """

    def __init__(self, message: str, diagnostic: float = 0.0):
        super().__init__(message)
        self.diagnostic = diagnostic


class NonConvergenceError(DtrError):
    """An iterative fit failed to converge.

    Carries ``score_norm``, the infinity norm of the score (gradient) at the
    final iterate.
    """

    def __init__(self, message: str, score_norm: float = float("nan")):
        super().__init__(message)
        self.score_norm = score_norm


class ParseError(DtrError, ValueError):
    """A data file or feature expression could not be parsed."""


class FeatureScopeError(DtrError, ValueError):
    """A feature refers to history that is not available at its stage."""


class StudyError(DtrError):
    """A Monte Carlo study failed too many replications to summarize."""


class CalibrationError(DtrError):
    """Calibration could not meet its fit-quality target.

    Carries ``best_adj_r2``, the best adjusted R-squared achieved over the
    degrees tried.
    """

    def __init__(self, message: str, best_adj_r2: float = float("nan")):
        super().__init__(message)
        self.best_adj_r2 = best_adj_r2


class ConfigError(DtrError, ValueError):
    """A run configuration is malformed or inconsistent."""


class ExtremePropensityWarning(UserWarning):
    """Fitted propensities came numerically close to 0 or 1."""
