"""Brute-force full-state oracle: dense 2^N vectors and exact partial traces.

Everything here is deliberately independent of the closed-form machinery
it validates. States are stored as dense complex amplitude vectors indexed
by computational-basis bitstrings (qubit 1 = most significant bit), and
reduced density matrices come from literal summation over the traced-out
tail, organized as a reshape + matrix product. Exponential cost is the
point: it buys certainty at small N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dicke import DickeParams, amplitudes, check_int
from .errors import (
    CapExceededError,
    InvalidParamsError,
    OutOfRangeError,
    WrongDimensionError,
    ZeroStateError,
)
from .smallmat import SmallMatrix

# Dense vectors above this qubit count are refused (2^14 amplitudes).
DEFAULT_CAP = 14

_REAL_TOL = 1e-12
_NORM_UNDERFLOW = 1e-13


@dataclass(frozen=True)
class Spinor:
    """A single-qubit pure state c0|0> + c1|1>."""

    c0: complex
    c1: complex

    def __post_init__(self):
        try:
            c0, c1 = complex(self.c0), complex(self.c1)
        except (TypeError, ValueError) as exc:
            raise InvalidParamsError(
                f"spinor components must be numbers, got {self.c0!r} and {self.c1!r}"
            ) from exc
        norm = abs(c0) ** 2 + abs(c1) ** 2
        if not abs(norm - 1.0) <= 1e-14:
            raise InvalidParamsError(f"spinor must have unit norm, got |c0|^2+|c1|^2 = {norm!r}")
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "c1", c1)


@dataclass(frozen=True)
class FullState:
    """Dense N-qubit pure state; amplitudes[i] belongs to the bitstring of i."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = check_int(self.n_qubits, "n_qubits")
        if n < 1:
            raise InvalidParamsError(f"need at least one qubit, got {n}")
        try:
            amp = np.asarray(self.amplitudes, dtype=complex)
        except (TypeError, ValueError) as exc:
            raise InvalidParamsError("state amplitudes must be numbers") from exc
        if amp.shape != (2**n,):
            raise InvalidParamsError(f"expected {2**n} amplitudes, got shape {amp.shape}")
        norm = float(np.linalg.norm(amp))
        if not abs(norm - 1.0) <= _REAL_TOL:
            raise InvalidParamsError(f"state must have unit norm, got {norm!r}")
        amp.flags.writeable = False
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "amplitudes", amp)


def _check_cap(n: int) -> None:
    if n > DEFAULT_CAP:
        raise CapExceededError(f"N = {n} exceeds the dense-state cap {DEFAULT_CAP}")


@lru_cache(maxsize=None)
def _hamming_weights(n: int) -> np.ndarray:
    w = np.array([i.bit_count() for i in range(2**n)], dtype=np.intp)
    w.flags.writeable = False
    return w


def expand_state(params: DickeParams) -> FullState:
    """The canonical state sum_r beta_r |N/2, N/2 - r> as a dense vector."""
    n, k = params.n_qubits, params.degeneracy
    _check_cap(n)
    beta = amplitudes(params)
    coeff = np.zeros(n + 1, dtype=complex)
    for r in range(k + 1):
        coeff[r] = beta[r] / math.sqrt(math.comb(n, r))
    return FullState(n, coeff[_hamming_weights(n)])


def symmetrize_two_spinors(n_qubits: int, k: int, eps1: Spinor, eps2: Spinor) -> FullState:
    """Normalized symmetrized product of N-k copies of eps1 and k copies of eps2.

    The sum over all N! orderings collapses onto the binom(N, k) distinct
    placements of the eps2 copies, and the amplitude on a bitstring of
    Hamming weight w needs only a sum over t = |placements on 1-bits|:

        g(w) = sum_t binom(w, t) binom(N-w, k-t)
               * eps1.c0^(N-w-k+t) * eps1.c1^(w-t) * eps2.c0^(k-t) * eps2.c1^t.

    Identical spinors are fine (the sum degenerates to a product state);
    ZeroState is raised only if the pre-normalization norm underflows.
    """
    n = check_int(n_qubits, "n_qubits", OutOfRangeError)
    k = check_int(k, "copy count k", OutOfRangeError)
    if n < 2:
        raise OutOfRangeError(f"need at least two qubits, got {n}")
    if not 1 <= k <= n - 1:
        raise OutOfRangeError(f"copy count k must satisfy 1 <= k <= {n - 1}, got {k}")
    _check_cap(n)
    g = np.zeros(n + 1, dtype=complex)
    for w in range(n + 1):
        acc = 0.0 + 0.0j
        for t in range(max(0, k - (n - w)), min(k, w) + 1):
            acc += (
                math.comb(w, t)
                * math.comb(n - w, k - t)
                * eps1.c0 ** (n - w - k + t)
                * eps1.c1 ** (w - t)
                * eps2.c0 ** (k - t)
                * eps2.c1**t
            )
        g[w] = acc
    amp = g[_hamming_weights(n)]
    norm = float(np.linalg.norm(amp))
    if norm < _NORM_UNDERFLOW:
        raise ZeroStateError(f"symmetrized state norm underflowed: {norm!r}")
    return FullState(n, amp / norm)


def _partial_trace(psi: FullState, keep: tuple[int, ...]) -> np.ndarray:
    n = psi.n_qubits
    keep = tuple(check_int(q, "qubit index", OutOfRangeError) for q in keep)
    if len(set(keep)) != len(keep):
        raise OutOfRangeError(f"kept qubits must be distinct, got {keep}")
    for q in keep:
        if not 0 <= q < n:
            raise OutOfRangeError(f"qubit index {q} outside 0..{n - 1}")
    tensor = psi.amplitudes.reshape((2,) * n)
    moved = np.moveaxis(tensor, keep, range(len(keep)))
    m = moved.reshape(2 ** len(keep), -1)
    return m @ m.conj().T


def _as_real_small_matrix(rho: np.ndarray, dim: int) -> SmallMatrix:
    """The real part of a reduced density matrix, as a validated SmallMatrix.

    The states under study have real amplitudes, so an imaginary part above
    1e-12 means a complex state was passed and raises InvalidParamsError.
    """
    residue = float(np.max(np.abs(rho.imag)))
    if residue > _REAL_TOL:
        raise InvalidParamsError(
            f"reduced density matrix has imaginary residue {residue:g}; "
            "only real states fit a SmallMatrix"
        )
    return SmallMatrix(dim, rho.real.ravel())


def partial_trace_to_two(psi: FullState, qubits: tuple[int, int] = (0, 1)) -> SmallMatrix:
    """Exact two-qubit reduced density matrix rho_{(x1 x2),(y1 y2)} = sum_z psi(x1 x2 z) psi*(y1 y2 z).

    `qubits` selects which pair (0-based) is kept; exchange symmetry of the
    states under study makes the choice irrelevant, which the test suite
    checks rather than assumes.
    """
    if psi.n_qubits < 2:
        raise WrongDimensionError("need at least 2 qubits to keep a pair")
    keep = tuple(qubits) if np.iterable(qubits) else ()
    if len(keep) != 2:
        raise OutOfRangeError(f"need exactly two qubit indices, got {qubits!r}")
    return _as_real_small_matrix(_partial_trace(psi, keep), 4)


def partial_trace_to_one(psi: FullState, qubit: int = 0) -> SmallMatrix:
    """Exact single-qubit reduced density matrix of the chosen qubit."""
    return _as_real_small_matrix(_partial_trace(psi, (qubit,)), 2)
