"""Exception types shared across the package."""


class DicketangleError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteError(DicketangleError, ValueError):
    """A matrix or vector entry is NaN or infinite."""


class WrongDimensionError(DicketangleError, ValueError):
    """A matrix has the wrong dimension for the requested operation."""


class NoConvergenceError(DicketangleError, ArithmeticError):
    """A LAPACK eigensolver failed to converge."""


class OutOfRangeError(DicketangleError, ValueError):
    """symmetrize_two_spinors got a qubit count or copy count k outside its admissible range."""


class InvalidParamsError(DicketangleError, ValueError):
    """State parameters (N, k, a) or derived quantities violate their constraints."""


class CapExceededError(DicketangleError, ValueError):
    """A requested qubit count exceeds the dense-state cap or the oracle command's n_max cap."""


class NotDensityMatrixError(DicketangleError, ValueError):
    """A matrix fails the density-matrix checks (trace one, positive semidefinite)."""


class NumericalInstabilityError(DicketangleError, ArithmeticError):
    """A computed quantity left its mathematically guaranteed range by more than tolerance."""
