"""Closed-form one- and two-qubit reductions of Dicke-class states.

Tracing all but two qubits out of |Psi> = sum_r beta_r |N/2, N/2 - r>
lands in the triplet subspace span{|00>, |psi+>, |11>}, so the whole 4x4
marginal is fixed by six real numbers A..F. Each is a short weighted sum
of amplitude products with the pair-removal Clebsch-Gordan coefficients;
no 2^N object is ever formed, which is what makes N ~ 100 trivial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dicke import DickeParams, amplitude_rows, n_table
from .errors import InvalidParamsError, NotDensityMatrixError
from .smallmat import SmallMatrix

_SQRT1_2 = math.sqrt(0.5)
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class TwoQubitMarginal:
    """The six independent elements of a symmetric two-qubit marginal.

    In the computational basis (|00>, |01>, |10>, |11>) the matrix is

        [[A, B, B, C],
         [B, D, D, E],
         [B, D, D, E],
         [C, E, E, F]].
    """

    params: DickeParams
    A: float
    B: float
    C: float
    D: float
    E: float
    F: float

    def __post_init__(self):
        check_elements(*np.array([self.A, self.B, self.C, self.D, self.E, self.F])[:, None])


def check_elements(A, B, C, D, E, F) -> None:
    """Raise InvalidParamsError unless every set of A..F is finite, with A, D, F
    nonnegative and unit trace A + 2D + F to within 1e-12."""
    if not all(np.isfinite(x).all() for x in (A, B, C, D, E, F)):
        raise InvalidParamsError("marginal elements must be finite")
    if (A < 0.0).any() or (D < 0.0).any() or (F < 0.0).any():
        raise InvalidParamsError("diagonal elements A, D, F must be nonnegative")
    trace = A + 2.0 * D + F
    bad = np.abs(trace - 1.0) > 1e-12
    if bad.any():
        raise InvalidParamsError(f"marginal must have unit trace, got {float(trace[bad][0])!r}")


@dataclass(frozen=True)
class SingleQubitMarginal:
    """A one-qubit reduced density matrix."""

    params: DickeParams
    rho: SmallMatrix

    def __post_init__(self):
        if self.rho.dim != 2:
            raise NotDensityMatrixError("single-qubit marginal must be 2x2")
        e = self.rho.entries
        if abs(e[1] - e[2]) > 1e-12:
            raise NotDensityMatrixError("single-qubit marginal must be symmetric")
        if abs(e[0] + e[3] - 1.0) > 1e-12:
            raise NotDensityMatrixError(f"single-qubit marginal must have unit trace, got {e[0] + e[3]!r}")
        if e[0] < -1e-12 or e[3] < -1e-12 or e[0] * e[3] - e[1] * e[2] < -1e-10:
            raise NotDensityMatrixError("single-qubit marginal must be positive semidefinite")


def marginal_elements(n_qubits: int, beta: np.ndarray) -> tuple[np.ndarray, ...]:
    """Two-qubit marginal elements A..F for each row of amplitudes `beta` (shape (m, k+1)).

    With c_m^(r) the pair-removal Clebsch-Gordan coefficients of N qubits
    (dicke.n_table) and beta_r the canonical amplitudes:

        A = sum_{r=0}^{k}   beta_r^2        (c_+1^(r))^2
        B = (1/sqrt 2) sum_{r=0}^{k-1} beta_r beta_{r+1} c_+1^(r) c_0^(r+1)
        C = sum_{r=0}^{k-2} beta_r beta_{r+2} c_+1^(r) c_-1^(r+2)
        D = (1/2) sum_{r=1}^{k} beta_r^2    (c_0^(r))^2
        E = (1/sqrt 2) sum_{r=0}^{k-1} beta_r beta_{r+1} c_0^(r) c_-1^(r+1)
        F = sum_{r=0}^{k}   beta_r^2        (c_-1^(r))^2

    Empty sums (small k) are zero. Every term is nonnegative, so the sums
    cannot cancel. Each is reduced along its own row, so a row's result does
    not depend on the other rows. Returns six arrays of shape (m,).
    """
    size = beta.shape[1]
    table = n_table(n_qubits)
    cp, c0, cm = (c[:size] for c in (table.c_plus, table.c_zero, table.c_minus))
    sq = beta * beta
    near = beta[:, :-1] * beta[:, 1:]
    far = beta[:, :-2] * beta[:, 2:]
    return (
        (sq * (cp * cp)).sum(axis=1),
        _SQRT1_2 * (near * (cp[:-1] * c0[1:])).sum(axis=1),
        (far * (cp[:-2] * cm[2:])).sum(axis=1),
        0.5 * (sq * (c0 * c0)).sum(axis=1),
        _SQRT1_2 * (near * (c0[:-1] * cm[1:])).sum(axis=1),
        (sq * (cm * cm)).sum(axis=1),
    )


def two_qubit_marginal(params: DickeParams) -> TwoQubitMarginal:
    """Two-qubit marginal elements A..F for a canonical Dicke-class state.

    The one-row view of marginal_elements.
    """
    n, k = params.n_qubits, params.degeneracy
    row = marginal_elements(n, amplitude_rows(n, k, [params.a]))
    return TwoQubitMarginal(params, *(float(col[0]) for col in row))


def marginal_matrix(m: TwoQubitMarginal) -> SmallMatrix:
    """Assemble the 4x4 two-qubit density matrix in the computational basis."""
    A, B, C, D, E, F = m.A, m.B, m.C, m.D, m.E, m.F
    return SmallMatrix(4, (A, B, B, C, B, D, D, E, B, D, D, E, C, E, E, F))


def triplet_blocks(A, B, C, D, E, F) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """R = T rho T^T, P = T rho^T_B T^T (shape (m, 3, 3)) and s^T rho^T_B s = D - C (shape (m,)).

    T has rows |00>, |psi+>, |11> and s is the singlet; A..F have shape (m,).
    rho has no singlet weight, so R holds its spectrum apart from one exact
    zero. The qubit swap commutes with the partial transpose, so T rho^T_B s
    is 0, and P and D - C hold the whole spectrum of rho^T_B.
    """
    sB, sE = _SQRT2 * B, _SQRT2 * E
    R = np.array([A, sB, C, sB, 2.0 * D, sE, C, sE, F]).T.reshape(-1, 3, 3)
    P = np.array([A, sB, D, sB, D + C, sE, D, sE, F]).T.reshape(-1, 3, 3)
    return R, P, D - C


def single_qubit_marginal(m: TwoQubitMarginal) -> SingleQubitMarginal:
    """Trace one more qubit out of the two-qubit marginal."""
    p = m.A + m.D
    off = m.B + m.E
    q = m.D + m.F
    return SingleQubitMarginal(m.params, SmallMatrix(2, (p, off, off, q)))
