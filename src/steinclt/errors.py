"""Exception hierarchy shared across the package.

Everything derives from SteinCltError so callers can catch library
failures in one clause; the subclasses also inherit from the matching
builtin (ValueError / RuntimeError) for idiomatic handling.
"""

from __future__ import annotations


class SteinCltError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(SteinCltError, ValueError):
    """A scalar argument is outside its admissible range."""


class ShapeError(SteinCltError, ValueError):
    """Dimension mismatch between vectors, matrices, cells or rows."""


class DomainError(SteinCltError, ValueError):
    """An integrand or expectation produced a non-finite value."""


class UnsupportedDimensionError(SteinCltError, ValueError):
    """An operation that supports only some dimensions was asked for another
    (``kolmogorov_mc`` is defined for N = 1 only)."""


class ConvergenceError(SteinCltError, RuntimeError):
    """Adaptive quadrature could not reach the requested tolerance.

    Carries the best available estimate and its error bound so callers
    can decide whether the partial answer is usable; both are arrays of
    the component shape for an array-valued integrand.
    """

    def __init__(self, message: str, estimate: complex, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class ConstructionError(SteinCltError, ValueError):
    """A row/family builder was asked for a distribution that does not exist
    (e.g. a negative atom probability)."""


class CapacityError(SteinCltError, ValueError):
    """An operation would exceed the fixed ``rows.DEFAULT_ATOM_CAP`` (atoms per cell)."""


class RowSpecError(SteinCltError, ValueError):
    """An array-spec document is malformed; message carries field context."""


class RowValidationError(SteinCltError, ValueError):
    """A parsed row failed statistical validation; embeds the report."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report
