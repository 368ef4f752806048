"""Exception types shared across the package."""


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
