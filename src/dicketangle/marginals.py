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
from numpy.linalg import _umath_linalg

from .dicke import (
    _HALF,
    _ONE,
    _TWO,
    _ZERO,
    DickeParams,
    _unchecked,
    amplitude_rows,
    check_number,
    check_numbers,
    check_type,
)
from .errors import InvalidParamsError, NotDensityMatrixError, NumericalInstabilityError
from .smallmat import SmallMatrix

_SQRT1_2 = np.array(math.sqrt(0.5))
_SQRT2 = np.array(math.sqrt(2.0))
_TINY = np.array(np.finfo(float).tiny)
# the tolerances of density_stack, the one density-matrix rule: trace, symmetry relative to
# the largest entry, and the smallest eigenvalue
TRACE_TOL = 1e-12
_SYM_TOL = 1e-12
_PSD_TOL = 1e-10

def _no_convergence(err, flag):
    raise NumericalInstabilityError("eigensolver failed: Eigenvalues did not converge")


def _eig(mats: np.ndarray, vectors: bool = False):
    """Eigenvalues of each real symmetric matrix of a stack, read from its lower triangle, and
    with vectors its eigenvectors too: the one seam to LAPACK. Bit for bit np.linalg.eigvalsh,
    or np.linalg.eigh with vectors, by the gufuncs they wrap; non-convergence raises
    NumericalInstabilityError "eigensolver failed: ..." (test_eig_is_numpys_eigensolver)."""
    gufunc, signature = (
        (_umath_linalg.eigh_lo, "d->dd") if vectors else (_umath_linalg.eigvalsh_lo, "d->d")
    )
    with np.errstate(call=_no_convergence, all="ignore", invalid="call"):
        return gufunc(mats, signature=signature)


def _first(values: np.ndarray, bad: np.ndarray):
    """The first entry of values where bad holds, as a Python scalar."""
    return values[bad].reshape(-1)[0].item()


def _refuse(bad: np.ndarray, values: np.ndarray, message: str) -> None:
    if np.logical_or.reduce(bad, axis=None):
        raise NotDensityMatrixError(f"{message} {_first(values, bad)!r}")


def density_stack(values, dim: int, what: str, vectors: bool = False):
    """The density-matrix rule: values as a float array of shape (m, dim, dim) whose every
    matrix is a real density matrix, for each matrix that enters as one.

    values go through check_numbers; another shape, or an entry that is not finite,
    raises InvalidParamsError. Then, in this order, each matrix must have unit trace to
    within TRACE_TOL, be symmetric to within 1e-12 of its largest entry (the eigensolver
    reads one triangle only), have no eigenvalue below -1e-10 and no negative diagonal
    entry. A failure raises NotDensityMatrixError, worded "{what} must ..., got ...",
    with the value from the first matrix that fails that test. The eigenvalues are
    eigvalsh's, or with vectors eigh's, and then the eigh factors (eigenvalues, then
    eigenvectors) are returned in place of the array, for a caller that needs them.
    """
    arr = check_numbers(values, what)
    if arr.ndim != 3 or arr.shape[1:] != (dim, dim):
        raise InvalidParamsError(f"{what} must have shape (m, {dim}, {dim}), got {arr.shape}")
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise InvalidParamsError(f"{what} must have finite entries")
    trace = arr.trace(axis1=1, axis2=2)
    _refuse(np.abs(trace - 1.0) > TRACE_TOL, trace, f"{what} must have unit trace, got")
    skew = np.maximum.reduce(np.abs(arr - arr.swapaxes(1, 2)), axis=(1, 2))
    bad = skew > _SYM_TOL * np.maximum.reduce(np.abs(arr), axis=(1, 2))
    _refuse(bad, skew, f"{what} must be symmetric, got an entry off its transpose by")
    spectrum = _eig(arr, vectors)
    low = (spectrum[0] if vectors else spectrum)[:, 0]
    _refuse(low < -_PSD_TOL, low, f"{what} must be positive semidefinite, got smallest eigenvalue")
    diagonal = arr.diagonal(axis1=1, axis2=2)
    _refuse(diagonal < 0.0, diagonal, f"{what} must have a nonnegative diagonal, got")
    return spectrum if vectors else arr


@dataclass(frozen=True)
class TwoQubitMarginal:
    """The six independent elements of a symmetric two-qubit marginal.

    In the computational basis (|00>, |01>, |10>, |11>) the matrix is

        [[A, B, B, C],
         [B, D, D, E],
         [B, D, D, E],
         [C, E, E, F]].

    params are those of the state it was traced from, or None if it stands alone.
    This 4x4, as marginal_matrix lays it out, must pass density_stack.
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
        density_stack(_pair_form(*(getattr(self, x) for x in "ABCDEF")), 4, "two-qubit marginal")


@dataclass(frozen=True)
class SingleQubitMarginal:
    """A one-qubit reduced density matrix; params as for TwoQubitMarginal. rho must be
    a 2x2 SmallMatrix that passes density_stack."""

    params: DickeParams | None
    rho: SmallMatrix

    def __post_init__(self):
        check_type(self.params, (DickeParams, type(None)), "params")
        check_type(self.rho, SmallMatrix, "rho")
        density_stack(self.rho.to_array()[None], 2, "single-qubit marginal")


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
        np.array([n_r * (n_r - _ONE), _TWO * r * n_r, r * (r - _ONE)])
        / float(n * (n - 1))
    )
    # weights of A, 2D, F; of B, E (c_+1^(r) c_0^(r+1), c_0^(r) c_-1^(r+1)); and of C
    diag = np.add.reduce((beta * beta)[:, None, :] * (c * c), axis=2)
    near = (beta[:, :-1] * beta[:, 1:])[:, None, :] * (c[:-1, :-1] * c[1:, 1:])
    near = np.add.reduce(near, axis=2)
    near *= _SQRT1_2
    far = np.add.reduce((beta[:, :-2] * beta[:, 2:]) * (c[0, :-2] * c[2, 2:]), axis=1)
    return diag[:, 0], near[:, 0], far, _HALF * diag[:, 1], near[:, 1], diag[:, 2]


def two_qubit_marginal(params: DickeParams) -> TwoQubitMarginal:
    """Two-qubit marginal elements A..F for a canonical Dicke-class state.

    The one-row view of marginal_elements. The marginal is built without
    TwoQubitMarginal's density rule, as the engine's are: it is the partial trace of a
    normalised state (test_built_marginals_are_finite_unit_trace_and_psd).
    """
    check_type(params, DickeParams, "params")
    n, k = params.n_qubits, params.degeneracy
    row = marginal_elements(n, amplitude_rows(n, k, [params.a]))
    return _unchecked(TwoQubitMarginal, params, *(float(col[0]) for col in row))


def _pair_form(A, B, C, D, E, F) -> np.ndarray:
    """The (m, 4, 4) of TwoQubitMarginal's docstring, from A..F of shape (m,) or floats."""
    return np.array([A, B, B, C, B, D, D, E, B, D, D, E, C, E, E, F]).T.reshape(-1, 4, 4)


def marginal_matrix(m: TwoQubitMarginal) -> SmallMatrix:
    """Assemble the 4x4 two-qubit density matrix in the computational basis."""
    check_type(m, TwoQubitMarginal, "m")
    return SmallMatrix(4, _pair_form(m.A, m.B, m.C, m.D, m.E, m.F).ravel())


def triplet_blocks(A, B, C, D, E, F) -> tuple[np.ndarray, ...]:
    """H and P = T rho^T_B T^T as one (m, 2, 3, 3) array; s^T rho^T_B s = D - C (shape (m,));
    and the one-qubit marginal rho_1 (shape (m, 2, 2)) of the two-qubit marginal rho: the
    blocks C2, N2 and C1 are read from.

    T has rows |00>, |psi+>, |11> and s is the singlet; A..F have shape (m,),
    or are floats for m = 1 (then s^T rho^T_B s is a float).
    rho has no singlet weight, so its spectrum is that of the Gram matrix
    R = T rho T^T = [[A, sqrt2 B, C], [sqrt2 B, 2D, sqrt2 E], [C, sqrt2 E, F]] and
    one exact zero. The qubit swap commutes with the partial transpose, so
    T rho^T_B s is 0, and P and D - C hold the whole spectrum of rho^T_B, with at most
    one negative eigenvalue (measures._negativity).
    Tracing out qubit 2 gives rho_1 = [[A + D, B + E], [B + E, D + F]]; this
    is the one place it is formed.

    H = L^T Y3 L, with R = L L^T and Y3 the restriction of sigma_y x sigma_y to the
    triplet basis, has the eigenvalues of R Y3 (XY and YX have the same ones), so C2 is
    read from a symmetric eigensolve. L = U diag(sqrt A, sqrt d2, sqrt d3) is the
    Cholesky factor of R, U unit lower triangular with

        u21 = sqrt2 B / A,  u31 = C / A,  u32 = e / d2,  e = sqrt2 E - sqrt2 B C / A,

    and the pivots A, d2 = 2D - 2B^2/A and d3 = F - C^2/A - e^2/d2, each clamped at 0.
    A pivot below the smallest normal double counts as zero and zeroes the rest of its
    column of U: a subnormal A (N = 2, a near 1e-160) has lost the relative precision the
    quotients need, and R >= 0 bounds the entries dropped with it by sqrt(A) < 1.5e-154.
    In the order (2, 1, 3) H is tridiagonal,

        [[d2,  h12,          0  ],
         [h12, 2B^2/A - 2C,  h13],
         [0,   h13,          0  ]],

    with h12 = sqrt(A d2) (u21 - u32) and h13 = -sqrt(A d3). The order gives the rows
    with B = E = 0 (a = 0) an exact split, and the pivots divide by A rather than square
    a quotient by sqrt A. H, P and rho_1 are written row by row into one array of 22
    columns, which is then sliced and reshaped.
    """
    sB, sE = _SQRT2 * B, _SQRT2 * E
    shape = np.shape(A)
    b, c, u21 = np.divide(np.array([B, C, sB]), A, out=np.zeros((3, *shape)), where=A >= _TINY)
    bb = (B + B) * b
    d2 = np.maximum(D + D - bb, _ZERO)
    e = sE - sB * c
    u32 = np.divide(e, d2, out=np.zeros(shape), where=d2 >= _TINY)
    d3 = np.maximum(F - C * c - e * u32, _ZERO)
    h12, h13 = np.sqrt(A * d2) * (u21 - u32), -np.sqrt(A * d3)
    zero, BE = np.zeros(shape), B + E
    # one row of 22 columns for each of the m rows (floats give one row too)
    rows = np.array([
        d2, h12, zero, h12, bb - (C + C), h13, zero, h13, zero,  # H
        A, sB, D, sB, D + C, sE, D, sE, F,                       # P
        A + D, BE, BE, D + F,                                    # rho_1
    ]).T.reshape(-1, 22)
    return rows[:, :18].reshape(-1, 2, 3, 3), D - C, rows[:, 18:].reshape(-1, 2, 2)


def single_qubit_marginal(m: TwoQubitMarginal) -> SingleQubitMarginal:
    """Trace one more qubit out of the two-qubit marginal: rho_1 of triplet_blocks."""
    check_type(m, TwoQubitMarginal, "m")
    rho1 = triplet_blocks(m.A, m.B, m.C, m.D, m.E, m.F)[2]
    return SingleQubitMarginal(m.params, SmallMatrix(2, rho1.ravel()))
