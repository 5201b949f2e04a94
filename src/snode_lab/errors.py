"""Exception types shared across the library.

Every error raised by snode_lab derives from :class:`SnodeLabError`, so
callers can catch one base class.  Names follow the failure they report,
not the call site.
"""

from __future__ import annotations


class SnodeLabError(Exception):
    """Base class for all snode_lab errors."""


class DimensionMismatch(SnodeLabError):
    pass


class NotHermitian(SnodeLabError):
    """Raised when a matrix fails a Hermitian check.

    Carries the maximum entrywise deviation max|M - M*| in ``deviation``.
    """

    def __init__(self, deviation: float, message: str | None = None):
        self.deviation = float(deviation)
        super().__init__(message or f"matrix is not Hermitian (max deviation {deviation:.3e})")


class NotPositiveDefinite(SnodeLabError):
    """Raised when a positive-definiteness check fails.

    ``order`` is the first failing leading order for chained factorizations,
    or None for a one-shot check.
    """

    def __init__(self, message: str = "matrix is not positive definite", order: int | None = None):
        self.order = order
        if order is not None:
            message = f"{message} (first failure at order {order})"
        super().__init__(message)


class InvalidToleranceScale(SnodeLabError):
    """The SNODELAB_TOL environment variable is not a finite number > 0."""


class NotContractive(SnodeLabError):
    pass


class PoleAtLambda(SnodeLabError):
    pass


class PoleAtZ(SnodeLabError):
    pass


class IndexOutOfRange(SnodeLabError, IndexError):
    pass


class InvalidDensity(SnodeLabError, KeyError, ValueError):
    """A density configuration with an unknown name or invalid parameters."""

    __str__ = Exception.__str__  # the plain message, not KeyError's repr of it


class NonFiniteEntries(SnodeLabError, ValueError):
    """A matrix, or a matrix of a stack, with an infinite or NaN entry."""


class EvaluationFailure(SnodeLabError):
    pass


class SingularDenominator(SnodeLabError):
    """Singular linear-fractional denominator; carries the grid point."""

    def __init__(self, z: complex, message: str | None = None):
        self.z = complex(z)
        super().__init__(message or f"singular denominator at z = {z}")


class SingularResolvent(SnodeLabError):
    def __init__(self, z: complex, message: str | None = None):
        self.z = complex(z)
        super().__init__(message or f"resolvent does not exist at z = {z}")


class NotInUpperHalfPlane(SnodeLabError):
    pass


class InvalidPair(SnodeLabError):
    pass


class SzegoViolated(SnodeLabError):
    pass


class Unsupported(SnodeLabError):
    pass


class QuadratureNotConverged(SnodeLabError):
    pass


class MissingMoment(SnodeLabError):
    """A moment asked of a density that declares it does not have it."""
