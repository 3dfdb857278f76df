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

from .dicke import DickeParams, amplitude_rows, check_number, check_type
from .errors import InvalidParamsError, NotDensityMatrixError, NumericalInstabilityError
from .smallmat import SmallMatrix

_SQRT1_2 = math.sqrt(0.5)
_SQRT2 = math.sqrt(2.0)


def _eig(solver, mats: np.ndarray) -> np.ndarray:
    """solver(mats), a numpy eigensolver, with a LAPACK failure raised as a typed error."""
    try:
        return solver(mats)
    except np.linalg.LinAlgError as exc:
        raise NumericalInstabilityError(f"eigensolver failed: {exc}") from exc


@dataclass(frozen=True)
class TwoQubitMarginal:
    """The six independent elements of a symmetric two-qubit marginal.

    In the computational basis (|00>, |01>, |10>, |11>) the matrix is

        [[A, B, B, C],
         [B, D, D, E],
         [B, D, D, E],
         [C, E, E, F]].

    params are those of the state it was traced from, or None if it stands alone.
    An element that is not finite raises InvalidParamsError. The matrix must be
    a density matrix: A, D, F nonnegative, unit trace A + 2D + F to within 1e-12,
    and the triplet block R of triplet_blocks (which holds its spectrum) positive
    semidefinite to within 1e-10; otherwise NotDensityMatrixError is raised.
    """

    params: DickeParams | None
    A: float
    B: float
    C: float
    D: float
    E: float
    F: float

    def __post_init__(self):
        check_type(self.params, (DickeParams, type(None)), "params")
        for name in "ABCDEF":
            object.__setattr__(self, name, check_number(getattr(self, name), name))
        elements = [getattr(self, name) for name in "ABCDEF"]
        if not all(map(math.isfinite, elements)):
            raise InvalidParamsError("marginal elements must be finite")
        A, _, _, D, _, F = elements
        if A < 0.0 or D < 0.0 or F < 0.0:
            raise NotDensityMatrixError("diagonal elements A, D, F must be nonnegative")
        trace = A + 2.0 * D + F
        if abs(trace - 1.0) > 1e-12:
            raise NotDensityMatrixError(f"marginal must have unit trace, got {trace!r}")
        R, _, _ = triplet_blocks(*elements)
        low = _eig(np.linalg.eigvalsh, R[0])[0].item()
        if low < -1e-10:
            raise NotDensityMatrixError(
                f"marginal must be positive semidefinite, got smallest eigenvalue {low!r}"
            )


@dataclass(frozen=True)
class SingleQubitMarginal:
    """A one-qubit reduced density matrix; params as for TwoQubitMarginal."""

    params: DickeParams | None
    rho: SmallMatrix

    def __post_init__(self):
        check_type(self.params, (DickeParams, type(None)), "params")
        check_type(self.rho, SmallMatrix, "rho")
        if self.rho.dim != 2:
            raise InvalidParamsError("single-qubit marginal must be 2x2")
        e = self.rho.entries
        if abs(e[1] - e[2]) > 1e-12:
            raise NotDensityMatrixError("single-qubit marginal must be symmetric")
        if abs(e[0] + e[3] - 1.0) > 1e-12:
            raise NotDensityMatrixError(f"single-qubit marginal must have unit trace, got {e[0] + e[3]!r}")
        if e[0] < -1e-12 or e[3] < -1e-12 or e[0] * e[3] - e[1] * e[2] < -1e-10:
            raise NotDensityMatrixError("single-qubit marginal must be positive semidefinite")


def marginal_elements(n_qubits: int, beta: np.ndarray) -> tuple[np.ndarray, ...]:
    """Two-qubit marginal elements A..F for each row of amplitudes `beta` (shape (m, k+1)).

    With beta_r the canonical amplitudes and c_m^(r) the Clebsch-Gordan
    coefficients (c_+1, c_0, c_-1) of <j1 = N/2 - 1; j2 = 1 | N/2> that split
    a pair of qubits off the Dicke state with r excitations,

        c_+1^(r) = sqrt((N-r)(N-r-1) / (N(N-1)))
        c_0^(r)  = sqrt(2 r (N-r)    / (N(N-1)))
        c_-1^(r) = sqrt(r (r-1)      / (N(N-1))),

    computed in each call for r = 0..k only:

        A = sum_{r=0}^{k}   beta_r^2        (c_+1^(r))^2
        B = (1/sqrt 2) sum_{r=0}^{k-1} beta_r beta_{r+1} c_+1^(r) c_0^(r+1)
        C = sum_{r=0}^{k-2} beta_r beta_{r+2} c_+1^(r) c_-1^(r+2)
        D = (1/2) sum_{r=1}^{k} beta_r^2    (c_0^(r))^2
        E = (1/sqrt 2) sum_{r=0}^{k-1} beta_r beta_{r+1} c_0^(r) c_-1^(r+1)
        F = sum_{r=0}^{k}   beta_r^2        (c_-1^(r))^2

    Empty sums (small k) are zero. Every term is nonnegative, so the sums
    cannot cancel. The terms of A, 2D and F, of B and E, and of C are formed as
    three stacked products, each summed along its contiguous r axis. So each
    element sums the same terms in the same order (numpy's pairwise summation
    along one row) as a sum of that element alone, and the stacking changes no
    bit. Each is reduced along its own row, so a row's result does not depend
    on the other rows. Returns six arrays of shape (m,).
    """
    n = n_qubits
    r = np.arange(beta.shape[1], dtype=float)
    n_r = n - r
    # rows c_+1, c_0, c_-1; the numerators are integers, exact in float below 2^53, so
    # c_-1 at r = 0, 1 and c_+1 at r = N - 1 are exact zeros (c_-1 at r = 0 is -0.0,
    # which enters only squared)
    c = np.sqrt(
        np.array([n_r * (n_r - 1.0), 2.0 * r * n_r, r * (r - 1.0)])
        / float(n * (n - 1))
    )
    # weights of A, 2D, F; of B, E (c_+1^(r) c_0^(r+1), c_0^(r) c_-1^(r+1)); and of C
    diag = ((beta * beta)[:, None, :] * (c * c)).sum(axis=2)
    near = ((beta[:, :-1] * beta[:, 1:])[:, None, :] * (c[:-1, :-1] * c[1:, 1:])).sum(axis=2)
    near *= _SQRT1_2
    far = ((beta[:, :-2] * beta[:, 2:]) * (c[0, :-2] * c[2, 2:])).sum(axis=1)
    return diag[:, 0], near[:, 0], far, 0.5 * diag[:, 1], near[:, 1], diag[:, 2]


def two_qubit_marginal(params: DickeParams) -> TwoQubitMarginal:
    """Two-qubit marginal elements A..F for a canonical Dicke-class state.

    The one-row view of marginal_elements.
    """
    check_type(params, DickeParams, "params")
    n, k = params.n_qubits, params.degeneracy
    row = marginal_elements(n, amplitude_rows(n, k, [params.a]))
    return TwoQubitMarginal(params, *(float(col[0]) for col in row))


def marginal_matrix(m: TwoQubitMarginal) -> SmallMatrix:
    """Assemble the 4x4 two-qubit density matrix in the computational basis."""
    check_type(m, TwoQubitMarginal, "m")
    A, B, C, D, E, F = m.A, m.B, m.C, m.D, m.E, m.F
    return SmallMatrix(4, (A, B, B, C, B, D, D, E, B, D, D, E, C, E, E, F))


def triplet_blocks(A, B, C, D, E, F) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """R = T rho T^T, P = T rho^T_B T^T (shape (m, 3, 3)) and s^T rho^T_B s = D - C (shape (m,)).

    T has rows |00>, |psi+>, |11> and s is the singlet; A..F have shape (m,),
    or are floats for m = 1 (then s^T rho^T_B s is a float).
    rho has no singlet weight, so R holds its spectrum apart from one exact
    zero. The qubit swap commutes with the partial transpose, so T rho^T_B s
    is 0, and P and D - C hold the whole spectrum of rho^T_B. R and P are two
    views of one (m, 2, 3, 3) array, built in one call.
    """
    sB, sE = _SQRT2 * B, _SQRT2 * E
    blocks = np.array(
        [A, sB, C, sB, 2.0 * D, sE, C, sE, F, A, sB, D, sB, D + C, sE, D, sE, F]
    ).T.reshape(-1, 2, 3, 3)
    return blocks[:, 0], blocks[:, 1], D - C


def single_qubit_marginal(m: TwoQubitMarginal) -> SingleQubitMarginal:
    """Trace one more qubit out of the two-qubit marginal."""
    check_type(m, TwoQubitMarginal, "m")
    p = m.A + m.D
    off = m.B + m.E
    q = m.D + m.F
    return SingleQubitMarginal(m.params, SmallMatrix(2, (p, off, off, q)))
