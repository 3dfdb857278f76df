"""Entanglement tangles of one-parameter Dicke-class symmetric multiqubit states.

The package computes one- and two-qubit reduced density matrices of the
canonical states |D_{N-k,k}> in closed form, derives the concurrence
tangle tau and the negativity tangle xi, and validates everything against
a brute-force full-state oracle at small N.
"""

from .dicke import DickeParams, amplitudes
from .errors import (
    CapExceededError,
    DicketangleError,
    InvalidParamsError,
    NoConvergenceError,
    NonFiniteError,
    NotDensityMatrixError,
    NumericalInstabilityError,
    OutOfRangeError,
    WrongDimensionError,
    ZeroStateError,
)
from .marginals import (
    SingleQubitMarginal,
    TwoQubitMarginal,
    marginal_matrix,
    single_qubit_marginal,
    two_qubit_marginal,
)
from .measures import (
    TangleRecord,
    TangleTable,
    concurrence_two_qubit,
    negativity_two_qubit,
    one_vs_rest,
    tangle_record,
    tangle_table,
)
from .oracle import (
    FullState,
    Spinor,
    expand_state,
    partial_trace_to_one,
    partial_trace_to_two,
    symmetrize_two_spinors,
)
from .smallmat import SmallMatrix

__version__ = "0.5.0"

__all__ = [
    "CapExceededError",
    "DickeParams",
    "DicketangleError",
    "FullState",
    "InvalidParamsError",
    "NoConvergenceError",
    "NonFiniteError",
    "NotDensityMatrixError",
    "NumericalInstabilityError",
    "OutOfRangeError",
    "SingleQubitMarginal",
    "SmallMatrix",
    "Spinor",
    "TangleRecord",
    "TangleTable",
    "TwoQubitMarginal",
    "WrongDimensionError",
    "ZeroStateError",
    "amplitudes",
    "concurrence_two_qubit",
    "expand_state",
    "marginal_matrix",
    "negativity_two_qubit",
    "one_vs_rest",
    "partial_trace_to_one",
    "partial_trace_to_two",
    "single_qubit_marginal",
    "symmetrize_two_spinors",
    "tangle_record",
    "tangle_table",
    "two_qubit_marginal",
    "__version__",
]
