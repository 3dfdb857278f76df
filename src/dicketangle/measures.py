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

from .dicke import (
    _FOUR,
    _ONE,
    _TWO,
    _ZERO,
    DickeParams,
    _unchecked,
    amplitude_rows,
    check_a_values,
    check_n_k,
    check_number,
    check_type,
)
from .errors import InvalidParamsError, NumericalInstabilityError
from .marginals import (
    SingleQubitMarginal,
    TwoQubitMarginal,
    _eig,
    _first,
    density_stack,
    marginal_elements,
    triplet_blocks,
)
from .smallmat import SmallMatrix

_RANGE_TOL = 1e-10

# row signs of Y @ G for Y = sigma_y x sigma_y, as a column
_FLIP_SIGNS = np.array([[-1.0], [1.0], [1.0], [-1.0]])


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
        check_type(self.params, DickeParams, "params")
        for name in ("c1_sq", "c2_sq", "tau", "n2", "xi"):
            object.__setattr__(self, name, check_number(getattr(self, name), name))
        n = self.params.n_qubits
        for name, value in (("c1_sq", self.c1_sq), ("c2_sq", self.c2_sq), ("n2", self.n2)):
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                raise InvalidParamsError(f"{name} must lie in [0, 1], got {value!r}")
        if abs(self.tau - (self.c1_sq - (n - 1) * self.c2_sq)) > 1e-12:
            raise InvalidParamsError("tau is inconsistent with c1_sq and c2_sq")
        if abs(self.xi - (self.c1_sq - (n - 1) * self.n2 ** 2)) > 1e-12:
            raise InvalidParamsError("xi is inconsistent with c1_sq and n2")


class TangleTable(NamedTuple):
    """The measures at each row of (N, k, a): five arrays of shape (rows,)."""

    c1_sq: np.ndarray
    c2_sq: np.ndarray
    tau: np.ndarray
    n2: np.ndarray
    xi: np.ndarray


def _wootters(mu: np.ndarray) -> np.ndarray:
    """Concurrence from the real eigenvalues mu of a symmetric matrix similar to rho Y, along
    the last axis.

    For real rho, Y = sigma_y x sigma_y is a real signed permutation with
    Y^2 = I, so rho rho~ = (rho Y)^2 and the Wootters square-root eigenvalues
    are |mu|: no product is formed and no square root amplifies noise. The
    engine passes the spectrum of the H of marginals.triplet_blocks (the
    eigenvalues of R Y3, which are those of rho Y less the singlet's zero), and
    concurrence_stack that of the M of _concurrence. A concurrence above
    1 + 1e-10, or NaN, aborts.
    """
    roots = np.abs(mu)
    roots.sort(axis=-1)
    value = np.maximum(_ZERO, roots[..., -1] - np.add.reduce(roots[..., :-1], axis=-1))
    return _at_most_one(value, "concurrence")


def _at_most_one(value: np.ndarray, name: str) -> np.ndarray:
    """value clamped to at most 1, after an abort that names the first entry above
    1 + 1e-10, or NaN."""
    if not np.maximum.reduce(value, axis=None, initial=0.0) <= 1.0 + _RANGE_TOL:  # NaN too
        bad = ~(value <= 1.0 + _RANGE_TOL)
        raise NumericalInstabilityError(f"{name} left [0, 1]: {_first(value, bad)!r}")
    return np.minimum(value, _ONE)


def _concurrence(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Concurrence of each 4x4 density matrix from its eigh factors w, v: concurrence_stack's
    core. With rho = V W V^T (W clamped at 0) and G = V sqrt(W), rho = G G^T and the
    symmetric M = G^T Y G has the eigenvalues of rho Y (XY and YX have the same ones); M^2
    is similar to Wootters' sqrt(rho) rho~ sqrt(rho). Y is a real signed permutation (-1 on
    the outer antidiagonal), so Y G is G with its rows reversed and the outer two negated.
    The engine's C2 comes from the H of marginals.triplet_blocks instead, the same form on
    the triplet block with a Cholesky factor, so this route checks it
    (test_engine_concurrence_matches_the_dense_4x4_route)."""
    g = v * np.sqrt(np.maximum(w, _ZERO))[..., None, :]
    return _wootters(_eig(g.swapaxes(-1, -2) @ (g[..., ::-1, :] * _FLIP_SIGNS)))


def concurrence_stack(rhos) -> np.ndarray:
    """Wootters concurrence of each real symmetric two-qubit density matrix in a stack.

    rhos has shape (m, 4, 4); entry i of the result is max(0, l1 - l2 - l3 - l4)
    of rhos[i], where l1 >= ... >= l4 are the moduli of the eigenvalues of
    rho (sigma_y x sigma_y); these are the square roots of the eigenvalues of
    rho rho~ (see _wootters). rhos must pass marginals.density_stack, whose one eigh
    call per matrix both runs its PSD test and factors rho for _concurrence. Entry i
    depends on rhos[i] alone, bit for bit.
    """
    return _concurrence(*density_stack(rhos, 4, "two-qubit density matrix", vectors=True))


def concurrence_two_qubit(rho: SmallMatrix) -> float:
    """Wootters concurrence of a real symmetric two-qubit density matrix: the one-row view
    of concurrence_stack, with its checks and typed errors. A rho that is not a 4x4
    SmallMatrix raises InvalidParamsError."""
    check_type(rho, SmallMatrix, "rho")
    return concurrence_stack(rho.to_array()[None]).item()


def _negativity(eigs: np.ndarray, singlet: np.ndarray) -> np.ndarray:
    """Doubled negativity N2 = 2 max(0, -min(eigs[..., 0], singlet)), from the ascending
    eigenvalues eigs of P and singlet = D - C, the partial-transpose blocks of
    marginals.triplet_blocks. A two-qubit partial transpose has at most one negative
    eigenvalue (Sanpera, Tarrach & Vidal, PRA 58, 826 (1998)), and this is twice its
    modulus; taking the modulus keeps -0.0 out. A value above 1 + 1e-10, or NaN, aborts.
    """
    value = _TWO * np.abs(np.minimum(np.minimum(eigs[..., 0], singlet), _ZERO))
    return _at_most_one(value, "doubled negativity")


def _c1_squared(rho1: np.ndarray) -> np.ndarray:
    """C1^2 = 4 det rho_1 for each rho_1 of a stack (m, 2, 2), clamped into [0, 1]: the one C1
    stage. It runs no PSD test. The engine's rho_1 are Gram matrices (triplet_blocks; det >=
    -1e-13 in test_built_marginals_are_finite_unit_trace_and_psd), and every other rho_1 has
    passed density_stack, so its eigenvalues are above -1e-10 and its trace is 1 to within
    1e-12; a det below 0, or 4 det above 1 (4 det <= trace^2, AM-GM), is within those bounds."""
    det = rho1[:, 0, 0] * rho1[:, 1, 1] - rho1[:, 0, 1] * rho1[:, 1, 0]
    return np.minimum(_FOUR * np.maximum(det, _ZERO), _ONE)


def one_vs_rest_stack(rhos) -> np.ndarray:
    """One-vs-rest entanglement 2 sqrt(det rho_1) of each one-qubit density matrix in a stack
    (m, 2, 2), by the C1 stage; rhos must pass marginals.density_stack."""
    return np.sqrt(_c1_squared(density_stack(rhos, 2, "single-qubit marginal")))


def one_vs_rest(rho1: SingleQubitMarginal) -> float:
    """One-vs-rest entanglement of a SingleQubitMarginal, bit for bit its row of
    one_vs_rest_stack. Its matrix passed density_stack when it was built, so only the C1
    stage runs."""
    check_type(rho1, SingleQubitMarginal, "rho1")
    return np.sqrt(_c1_squared(rho1.rho.to_array()[None])).item()


def negativity_two_qubit(m: TwoQubitMarginal) -> float:
    """Doubled negativity ||rho_2^T_B||_1 - 1 of the two-qubit marginal, in [0, 1]."""
    check_type(m, TwoQubitMarginal, "m")
    blocks, singlet, _ = triplet_blocks(m.A, m.B, m.C, m.D, m.E, m.F)
    return _negativity(_eig(blocks[:, 1]), singlet).item()


def _checked_pairs(pairs) -> list[tuple[int, int]]:
    """Validate each (N, k) of a nonempty sequence of pairs with check_n_k; return them as ints."""
    message = "pairs must be a sequence of (n_qubits, degeneracy) pairs"
    # a set has no pairs[i] for the pair-major rows to follow
    if isinstance(pairs, (set, frozenset)):
        raise InvalidParamsError(message)
    try:
        pairs = [(n, k) for n, k in pairs]
    except (TypeError, ValueError):
        raise InvalidParamsError(message) from None
    if not pairs:
        raise InvalidParamsError("need at least one (n_qubits, degeneracy) pair")
    return [check_n_k(n, k) for n, k in pairs]


def tangle_grid(pairs, a_values) -> TangleTable:
    """Concurrence and negativity tangles of every (N, k) in `pairs` at every overlap in `a_values`.

    Returns the columns pair-major: rows i*m .. i*m + m - 1, with m = len(a_values),
    belong to pairs[i]. Invalid (N, k, a) raise InvalidParamsError; this is
    the one place they are validated (_checked_pairs, check_a_values), and
    the engine behind it, _measure_rows and _tangle_columns, runs on what
    passed. Each pair's amplitudes and marginal elements A..F are built on
    their own (their row widths k + 1 differ); the three measures then run
    once over the rows of all pairs. The marginals built are not re-checked:
    as partial traces of a normalised state they have unit trace, and their
    triplet block R = T rho T^T and rho_1 are Gram matrices
    (test_built_marginals_are_finite_unit_trace_and_psd). A C2
    or N2 above 1 + 1e-10, or NaN, raises NumericalInstabilityError. One
    failing row fails the whole call. Every stage works row by row, so a row
    depends on its (N, k, a) alone, bit for bit.
    """
    pairs, a = _checked_pairs(pairs), check_a_values(a_values)
    return TangleTable(*_tangle_columns(*_measure_rows(pairs, a)))


def _measure_rows(pairs: list[tuple[int, int]], a: np.ndarray) -> tuple:
    """N - 1, C1^2, C2 and N2 at each row of pairs and a: the measure stage, for int (N, k)
    pairs that passed check_n_k and a 1-D float array of overlaps in [0, 1]; it checks
    neither again. triplet_blocks gives the three blocks the measures read: C1^2 comes from
    rho_1, and one eigvalsh call reads the spectra of H (C2) and P (N2, with D - C) of the
    (m, 2, 3, 3) stack, so the aborts run in this order: the eigensolver's, C2's check, N2's
    check."""
    if len(pairs) == 1:
        # the one-pair view copies nothing and keeps N - 1 a Python int
        (n, k), = pairs
        elements = marginal_elements(n, amplitude_rows(n, k, a))
        n_minus_1 = n - 1
    else:
        per_pair = [marginal_elements(n, amplitude_rows(n, k, a)) for n, k in pairs]
        elements = [np.concatenate(col) for col in zip(*per_pair)]
        n_minus_1 = np.repeat(np.array([n - 1 for n, _ in pairs], dtype=float), len(a))
    blocks, singlet, rho1 = triplet_blocks(*elements)
    c1_sq = _c1_squared(rho1)
    spectra = _eig(blocks)
    return n_minus_1, c1_sq, _wootters(spectra[:, 0]), _negativity(spectra[:, 1], singlet)


def _tangle_columns(n_minus_1, c1_sq, c2, n2) -> tuple:
    """c1_sq, c2_sq, tau, n2, xi from _measure_rows' output: the one place tau and xi are
    formed. On arrays (tangle_grid) and on the Python floats of one row (tangle_record) it does
    the same IEEE operations, on the same values (N - 1 < 2**53 converts to float exactly),
    so it gives the same bits."""
    c2_sq = c2 * c2
    return c1_sq, c2_sq, c1_sq - n_minus_1 * c2_sq, n2, c1_sq - n_minus_1 * n2 * n2


def tangle_table(n_qubits: int, degeneracy: int, a_values) -> TangleTable:
    """Concurrence and negativity tangles of (N, k) at every overlap in `a_values`.

    The one-pair view of tangle_grid, with its checks and typed errors.
    Row i depends on a_values[i] alone, bit for bit.
    """
    return tangle_grid([(n_qubits, degeneracy)], a_values)


def tangle_record(params: DickeParams) -> TangleRecord:
    """Concurrence and negativity tangles for one canonical Dicke-class state.

    The one-row view of tangle_grid's engine, bit for bit row 0 of
    tangle_table(N, k, [a]), with the same aborts. DickeParams validated
    (N, k, a) when it was built, so the engine runs without tangle_grid's
    checks, and the record is built without TangleRecord's: its ranges and
    consistency relations are held by test_tangle_record_is_a_checked_record.
    """
    check_type(params, DickeParams, "params")
    n_minus_1, c1_sq, c2, n2 = _measure_rows(
        [(params.n_qubits, params.degeneracy)], np.array([params.a])
    )
    row = _tangle_columns(n_minus_1, c1_sq.item(), c2.item(), n2.item())
    return _unchecked(TangleRecord, params, *row)
