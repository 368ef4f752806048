"""Exception types shared across the package, and its argument rules:
`require_positive` (a scale is positive and finite), `require_exponent` (an
exponent lies in [1, inf]) and `require_count` (a count is an integer >= 1),
each raising `PreconditionError` as ``f"{name}={value} must be ..."``; and
the two rules of the paper's hypotheses on exponents, `require` (a named
condition holds) and `require_relation` (an exponent relation holds within
1e-9), raising it as ``f"{condition}, got {got}"``."""

import math
import numbers


class FracheatError(ValueError):
    """Base class for all package-specific errors."""


class PreconditionError(FracheatError):
    """An operation was called outside its hypotheses (bad exponents,
    invalid grid parameters, smallness condition violated, ...)."""


class RepresentationError(PreconditionError):
    """Field passed in the wrong representation (physical vs spectral)."""


class ContaminationError(PreconditionError):
    """Whole-space emulation failed: `grid.require_whole_space` found
    HALF_BOX_TOL or more of the |f|-mass outside the central half-box.
    (Spectral content at the Nyquist edge is a plain PreconditionError.)"""


class ConvergenceError(FracheatError):
    """A fixed-point iteration failed to converge within its budget."""


def require_positive(name: str, value) -> None:
    """Reject a value that is not a positive finite number (NaN included)."""
    if not 0 < value < math.inf:
        raise PreconditionError(f"{name}={value} must be positive and finite")


def require_exponent(name: str, value) -> None:
    """Reject an exponent outside [1, inf] (NaN included)."""
    if not value >= 1:
        raise PreconditionError(f"{name}={value} must be >= 1")


def require_count(name: str, value) -> None:
    """Reject a count that is not an integer >= 1 (numpy integers are integers)."""
    if not (isinstance(value, numbers.Integral) and value >= 1):
        raise PreconditionError(f"{name}={value} must be an integer >= 1")


def require(holds: bool, condition: str, got: str) -> None:
    """Reject an input for which the named `condition` does not hold."""
    if not holds:
        raise PreconditionError(f"{condition}, got {got}")


def require_relation(condition: str, residual: float) -> None:
    """Reject exponents that miss the relation `condition` by over 1e-9 (or NaN)."""
    require(abs(residual) <= 1e-9, condition, f"residual {residual:.3e}")
