"""Pairwise and one-vs-rest entanglement measures, and the two tangles.

For a pure symmetric N-qubit state every qubit pair carries the same
marginal, so the monogamy combination needs just three numbers per
parameter point: the Wootters concurrence C2 of the pair, the doubled
negativity N2 of the pair, and the one-vs-rest entanglement C1 = N1 =
2 sqrt(det rho_1). The tangles are

    tau = C1^2 - (N-1) C2^2        (concurrence tangle)
    xi  = C1^2 - (N-1) N2^2        (negativity tangle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dicke import DickeParams, amplitude_rows, check_a_values, check_n_k
from .errors import (
    InvalidParamsError,
    NoConvergenceError,
    NotDensityMatrixError,
    NumericalInstabilityError,
    WrongDimensionError,
)
from .marginals import (
    SingleQubitMarginal,
    TwoQubitMarginal,
    check_elements,
    marginal_elements,
    triplet_blocks,
)
from .smallmat import SmallMatrix

_IMAG_ABORT = 1e-8
_RANGE_TOL = 1e-10
# eigvalsh reads one triangle only, so asymmetry beyond this (relative) is an error
_SYM_TOL = 1e-12

# sigma_y x sigma_y is real: -1 on the outer antidiagonal, +1 on the inner one.
_Y4 = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=float)
# Its restriction to the triplet basis {|00>, |psi+>, |11>}; R @ Y3 reverses
# the columns of R and negates the outer two.
_Y3_COLUMN_SIGNS = np.array([-1.0, 1.0, -1.0])


@dataclass(frozen=True)
class TangleRecord:
    """All measures of one (N, k, a) parameter point."""

    params: DickeParams
    c1_sq: float
    c2_sq: float
    tau: float
    n2: float
    xi: float

    def __post_init__(self):
        n = self.params.n_qubits
        for name, value in (("c1_sq", self.c1_sq), ("c2_sq", self.c2_sq), ("n2", self.n2)):
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                raise InvalidParamsError(f"{name} must lie in [0, 1], got {value!r}")
        if abs(self.tau - (self.c1_sq - (n - 1) * self.c2_sq)) > 1e-12:
            raise InvalidParamsError("tau is inconsistent with c1_sq and c2_sq")
        if abs(self.xi - (self.c1_sq - (n - 1) * self.n2 ** 2)) > 1e-12:
            raise InvalidParamsError("xi is inconsistent with c1_sq and n2")


class TangleTable(NamedTuple):
    """The measures of one (N, k) at each overlap a: five arrays of shape (m,)."""

    c1_sq: np.ndarray
    c2_sq: np.ndarray
    tau: np.ndarray
    n2: np.ndarray
    xi: np.ndarray


def _eig(solver, mats: np.ndarray) -> np.ndarray:
    try:
        return solver(mats)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigensolver failed: {exc}") from exc


def _first(values: np.ndarray, bad: np.ndarray):
    return values[bad].reshape(-1)[0].item()


def _wootters(mu: np.ndarray) -> np.ndarray:
    """Concurrence from the eigenvalues mu of rho Y along the last axis.

    For real rho, Y = sigma_y x sigma_y is a real signed permutation with
    Y^2 = I, so rho rho~ = (rho Y)^2 and the Wootters square-root eigenvalues
    are |mu|: no product is formed and no square root amplifies noise. The
    exact eigenvalues mu^2 of rho rho~ are real and nonnegative; an imaginary
    part beyond 1e-8 or a real part below -1e-10 aborts, and so does a
    concurrence above 1 + 1e-10 or NaN.
    """
    lam = mu * mu
    if np.iscomplexobj(lam):
        bad = np.abs(lam.imag) > _IMAG_ABORT
        if bad.any():
            raise NumericalInstabilityError(f"complex eigenvalue of rho rho~: {_first(lam, bad)!r}")
    bad = lam.real < -_RANGE_TOL
    if bad.any():
        raise NumericalInstabilityError(f"negative eigenvalue of rho rho~: {_first(lam, bad)!r}")
    roots = np.sort(np.abs(mu), axis=-1)
    value = np.maximum(0.0, roots[..., -1] - roots[..., :-1].sum(axis=-1))
    bad = ~(value <= 1.0 + _RANGE_TOL)
    if bad.any():
        raise NumericalInstabilityError(f"concurrence left [0, 1]: {_first(value, bad)!r}")
    return np.minimum(value, 1.0)


def _check_psd(low: np.ndarray) -> None:
    """Raise NotDensityMatrixError if a smallest eigenvalue in `low` is below -1e-10."""
    bad = low < -_RANGE_TOL
    if bad.any():
        raise NotDensityMatrixError(f"matrix is not PSD, smallest eigenvalue {_first(low, bad)!r}")


def _check_density_matrix(rho: SmallMatrix) -> None:
    arr = rho.to_array()
    trace = float(np.trace(arr))
    if abs(trace - 1.0) > _RANGE_TOL:
        raise NotDensityMatrixError(f"trace must be 1, got {trace!r}")
    skew = float(np.max(np.abs(arr - arr.T)))
    if skew > _SYM_TOL * np.max(np.abs(arr)):
        raise NotDensityMatrixError(
            f"matrix is not symmetric: an entry differs from its transpose by {skew!r}"
        )
    _check_psd(_eig(np.linalg.eigvalsh, arr)[:1])


def concurrence_two_qubit(rho: SmallMatrix) -> float:
    """Wootters concurrence of a real symmetric two-qubit density matrix.

    Returns max(0, l1 - l2 - l3 - l4), where l1 >= ... >= l4 are the moduli
    of the eigenvalues of rho (sigma_y x sigma_y); these are the square roots
    of the eigenvalues of rho rho~ (see _wootters). rho must have unit trace
    and be positive semidefinite, to within 1e-10, and symmetric to within
    1e-12 of its largest entry; otherwise NotDensityMatrixError is raised.
    """
    if rho.dim != 4:
        raise WrongDimensionError(f"concurrence needs a 4x4 matrix, got dim {rho.dim}")
    _check_density_matrix(rho)
    return float(_wootters(_eig(np.linalg.eigvals, rho.to_array() @ _Y4)))


def _triplet_concurrence(blocks: np.ndarray) -> np.ndarray:
    """Concurrence of each triplet block R: the PSD check, then eig(R Y3)."""
    _check_psd(_eig(np.linalg.eigvalsh, blocks)[:, 0])
    return _wootters(_eig(np.linalg.eigvals, blocks[:, :, ::-1] * _Y3_COLUMN_SIGNS))


def _negativity(blocks: np.ndarray, singlet: np.ndarray) -> np.ndarray:
    """Doubled negativity: twice the summed moduli of the negative eigenvalues of P and D - C.

    P and D - C are the partial-transpose blocks of marginals.triplet_blocks.
    A value above 1 + 1e-10, or NaN, aborts.
    """
    eigs = _eig(np.linalg.eigvalsh, blocks)
    value = 2.0 * (np.abs(np.minimum(eigs, 0.0)).sum(axis=-1) + np.abs(np.minimum(singlet, 0.0)))
    bad = ~(value <= 1.0 + _RANGE_TOL)
    if bad.any():
        raise NumericalInstabilityError(f"doubled negativity left [0, 1]: {_first(value, bad)!r}")
    return np.minimum(value, 1.0)


def _c1_squared(det: np.ndarray) -> np.ndarray:
    """C1^2 = 4 det rho_1 for each det: one PSD abort, one range abort, one clamp into [0, 1]."""
    bad = det < -_RANGE_TOL
    if bad.any():
        raise NotDensityMatrixError(
            f"single-qubit marginal must be positive semidefinite, got det {_first(det, bad)!r}"
        )
    c1_sq = 4.0 * np.maximum(det, 0.0)
    bad = ~(c1_sq <= (1.0 + _RANGE_TOL) ** 2)
    if bad.any():
        raise NumericalInstabilityError(
            f"one-vs-rest measure left [0, 1]: {math.sqrt(_first(c1_sq, bad))!r}"
        )
    return np.minimum(c1_sq, 1.0)


def one_vs_rest(rho1: SingleQubitMarginal) -> float:
    """One-vs-rest entanglement 2 sqrt(det rho_1), the one-row view of tangle_table's C1 stage."""
    e = rho1.rho.entries
    return math.sqrt(_c1_squared(np.array([e[0] * e[3] - e[1] * e[2]])).item())


def negativity_two_qubit(m: TwoQubitMarginal) -> float:
    """Doubled negativity ||rho_2^T_B||_1 - 1 of the two-qubit marginal, in [0, 1]."""
    _, blocks, singlet = triplet_blocks(*(np.array([x]) for x in (m.A, m.B, m.C, m.D, m.E, m.F)))
    return _negativity(blocks, singlet).item()


def tangle_table(n_qubits: int, degeneracy: int, a_values) -> TangleTable:
    """Concurrence and negativity tangles of (N, k) at every overlap in `a_values`.

    Evaluates the amplitudes, the marginal elements A..F and the three
    measures as array operations over the whole a-grid, with the same checks
    and typed errors as the scalar pieces: invalid (N, k, a) raise
    InvalidParamsError, marginals that fail the TwoQubitMarginal checks
    raise InvalidParamsError, a marginal or one-qubit reduction that is not
    positive semidefinite raises NotDensityMatrixError, and a C1, C2 or N2
    above 1 + 1e-10, or NaN, aborts with NumericalInstabilityError where it
    is computed. One failing a fails the whole call. Row i depends on
    a_values[i] alone, bit for bit.
    """
    n, k = check_n_k(n_qubits, degeneracy)
    a = check_a_values(a_values)
    A, B, C, D, E, F = marginal_elements(n, amplitude_rows(n, k, a))
    check_elements(A, B, C, D, E, F)
    c1_sq = _c1_squared((A + D) * (D + F) - (B + E) * (B + E))
    R, P, singlet = triplet_blocks(A, B, C, D, E, F)
    c2 = _triplet_concurrence(R)
    c2_sq = c2 * c2
    n2 = _negativity(P, singlet)
    return TangleTable(c1_sq, c2_sq, c1_sq - (n - 1) * c2_sq, n2, c1_sq - (n - 1) * n2 * n2)


def tangle_record(params: DickeParams) -> TangleRecord:
    """Concurrence and negativity tangles for one canonical Dicke-class state.

    The one-row view of tangle_table.
    """
    row = tangle_table(params.n_qubits, params.degeneracy, [params.a])
    return TangleRecord(params, *(float(col[0]) for col in row))
