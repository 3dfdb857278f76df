"""Exception types shared across the package: one class per kind of mistake."""


class DicketangleError(Exception):
    """Base class for all package-specific errors."""


class InvalidParamsError(DicketangleError, ValueError):
    """A value from outside has the wrong type, is not a number or not finite, or has the
    wrong shape or range: (N, k, a), a matrix's dim or entries, a spinor, a state, a tol."""


class CapExceededError(DicketangleError, ValueError):
    """A request is past a cap: the dense-state cap of 14 qubits, or the check and oracle
    commands' n_max cap and the check command's row cap."""


class NotDensityMatrixError(DicketangleError, ValueError):
    """A matrix or marginal of the right shape fails the density-matrix checks
    (trace one, symmetric, positive semidefinite)."""


class NumericalInstabilityError(DicketangleError, ArithmeticError):
    """A LAPACK eigensolver failed, or a computed quantity left its mathematically
    guaranteed range by more than tolerance."""
