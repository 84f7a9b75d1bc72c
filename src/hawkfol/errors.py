"""Exception and warning types shared across the package, and its count and point checks.

InvalidParams is the one input-error type: every argument that is out of
range or malformed raises it (or its subclass UnknownPreset), and the CLI
maps it to exit code 2.  Every other HawkfolError reports a numerical
failure, exit code 3.
"""

import operator

import numpy as np


class HawkfolError(Exception):
    """Base class for all package errors."""


class ChartExceeded(HawkfolError):
    """A point (or a finite-difference stencil around it) left the coordinate chart."""


class DegenerateMetric(HawkfolError):
    """The metric is not positive definite at a requested point."""


class InvalidParams(HawkfolError, ValueError):
    """An argument is out of range or malformed."""


def as_count(value, name: str, minimum: int = 1) -> int:
    """The one check of a count: `value` as an int if it is an integer >= minimum."""
    if not hasattr(type(value), "__index__") or operator.index(value) < minimum:
        raise InvalidParams(f"{name} must be an integer >= {minimum}, got {value!r}")
    return operator.index(value)


def as_point(value, name: str) -> np.ndarray:
    """The one check of a point or center offset: `value` as a float array of
    shape (3,) if it has that shape and is finite."""
    try:
        point = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        point = None
    if point is None or point.shape != (3,) or not np.all(np.isfinite(point)):
        raise InvalidParams(f"{name} must be a finite point of shape (3,), got {value!r}")
    return point


class UnknownPreset(InvalidParams):
    """Requested preset name is not registered."""


class StepSizeUnderflow(HawkfolError):
    """An ODE integration would require a step below machine resolution."""


class NonEmbedded(HawkfolError):
    """A graph surface has radial factor 1 + phi <= 0 somewhere."""


class DegenerateInducedMetric(HawkfolError):
    """The induced surface metric is singular at a node."""


class NotOrthogonal(HawkfolError):
    """Right-hand side carries kernel content where none is allowed."""


class UnsupportedDegree(HawkfolError):
    """Closed-form sphere moments are only tabulated up to degree six."""


class NonConvergence(HawkfolError):
    """Newton iteration did not reach the requested tolerance."""

    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class DegenerateHessian(HawkfolError):
    """The concentration-scalar Hessian is too ill conditioned to center the solve."""


class ContinuationBroken(HawkfolError):
    """Radial continuation failed after step halving; carries the partial trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class NoRoot(HawkfolError):
    """Area matching between the two quartic expansions has no root at this parameter."""


class BandLimitExceeded(UserWarning):
    """A node field carries noticeable energy above the grid band limit."""
