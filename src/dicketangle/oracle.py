"""Brute-force full-state oracle: dense 2^N vectors and exact partial traces.

Everything here is deliberately independent of the closed-form machinery
it validates. States are stored as dense complex amplitude vectors indexed
by computational-basis bitstrings (qubit 1 = most significant bit), and
reduced density matrices come from literal summation over the traced-out
tail, organized as a reshape + matrix product. Exponential cost is the
point: it buys certainty at small N.

Each route works on a stack of states: expand_states gives the (m, 2^N)
amplitude rows of one (N, k) at m overlaps, partial_traces the (m, dim, dim)
reduced density matrices of such rows, and symmetrized_states the rows of m
spinor pairs. The scalar functions (expand_state, partial_trace_to_two,
partial_trace_to_one, symmetrize_two_spinors) are their one-row views, bit
for bit their rows, and run no check that the stack has already run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dicke import (
    DickeParams, _unchecked, check_a_values, check_int, check_n_k, check_numbers, check_type,
    int_text,
)
from .errors import CapExceededError, InvalidParamsError
from .marginals import TRACE_TOL
from .smallmat import SmallMatrix

# Dense vectors above this qubit count are refused (2^14 amplitudes).
DEFAULT_CAP = 14

_REAL_TOL = 1e-12


@dataclass(frozen=True)
class Spinor:
    """A single-qubit pure state c0|0> + c1|1>."""

    c0: complex
    c1: complex

    def __post_init__(self):
        c = check_numbers((self.c0, self.c1), "spinor components", complex)
        if c.shape != (2,):
            raise InvalidParamsError(f"spinor components must be two numbers, got shape {c.shape}")
        c0, c1 = c.tolist()
        norm = abs(c0) ** 2 + abs(c1) ** 2
        if not abs(norm - 1.0) <= 1e-14:
            raise InvalidParamsError(f"spinor must have unit norm, got |c0|^2+|c1|^2 = {norm!r}")
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "c1", c1)


@dataclass(frozen=True)
class FullState:
    """Dense N-qubit pure state; amplitudes[i] belongs to the bitstring of i. Its squared
    norm must be 1 to within marginals.TRACE_TOL, the trace tolerance of its partial traces."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = check_int(self.n_qubits, "n_qubits")
        if n < 1:
            raise InvalidParamsError(f"need at least one qubit, got {int_text(n)}")
        amp = check_numbers(self.amplitudes, "state amplitudes", complex)
        # no array has 2**63 entries, so a larger n fails without forming 2**n
        if amp.shape != (2 ** min(n, 63),):
            raise InvalidParamsError(
                f"expected 2**{int_text(n)} amplitudes, got shape {amp.shape}"
            )
        _check_unit_norm(amp)
        amp.flags.writeable = False
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "amplitudes", amp)


def _check_unit_norm(amp: np.ndarray) -> None:
    norm_sq = np.vdot(amp, amp).real.item()
    if not abs(norm_sq - 1.0) <= TRACE_TOL:
        raise InvalidParamsError(f"state must have unit norm, got squared norm {norm_sq!r}")


def _check_cap(n: int) -> None:
    if n > DEFAULT_CAP:
        raise CapExceededError(f"N = {int_text(n)} exceeds the dense-state cap {DEFAULT_CAP}")


@lru_cache(maxsize=None)
def _hamming_weights(n: int) -> np.ndarray:
    w = np.array([i.bit_count() for i in range(2**n)], dtype=np.intp)
    w.flags.writeable = False
    return w


def _expanded(n: int, k: int, a_values: list[float]) -> np.ndarray:
    """expand_states' rows for (N, k) and Python-float overlaps that passed their checks,
    each held to FullState's unit-norm rule."""
    coeff = np.zeros((len(a_values), n + 1), dtype=complex)
    for row, a in zip(coeff, a_values):
        b = math.sqrt((1.0 - a) * (1.0 + a))  # as DickeParams.b
        c = [math.comb(n - r, k - r) * a ** (k - r) * b**r for r in range(k + 1)]
        norm = math.sqrt(math.fsum(math.comb(n, r) * x * x for r, x in enumerate(c)))
        row[: k + 1] = [x / norm for x in c]
    amp = coeff.take(_hamming_weights(n), axis=1)
    for row in amp:
        _check_unit_norm(row)
    amp.flags.writeable = False
    return amp


def expand_states(n_qubits: int, degeneracy: int, a_values) -> np.ndarray:
    """The canonical states of (N, k) at each overlap in a_values, as read-only (m, 2^N)
    complex rows: row i is the symmetrized product of N-k copies of |0> and k copies of
    a|0> + b|1> at a = a_values[i], whose bitstrings of weight r carry
    binom(N-r, k-r) a^(k-r) b^r before normalisation (the k - r copies of a|0> + b|1> on
    0-bits take a).

    (N, k, a) are checked as DickeParams checks them, N against the dense-state cap, and
    each row against FullState's unit-norm rule. Each row is built on its own, with
    math.comb, Python's ** and a math.fsum norm, so it depends on its a alone, bit for bit.
    """
    n, k = check_n_k(n_qubits, degeneracy)
    _check_cap(n)
    return _expanded(n, k, check_a_values(a_values).tolist())


def expand_state(params: DickeParams) -> FullState:
    """The canonical state as a dense vector: the one-row view of expand_states, which has
    checked it as FullState would."""
    check_type(params, DickeParams, "params")
    n = params.n_qubits
    _check_cap(n)
    return _unchecked(FullState, n, _expanded(n, params.degeneracy, [params.a])[0])


def symmetrized_states(n_qubits: int, k: int, eps1: Spinor, eps2s) -> np.ndarray:
    """Normalized symmetrized products of N-k copies of eps1 and k copies of each eps2.

    Row i of the (len(eps2s), 2^N) complex result belongs to eps2s[i], a
    sequence of Spinor. The sum over all N! orderings collapses onto the
    binom(N, k) distinct placements of the eps2 copies, and the amplitude on
    a bitstring of Hamming weight w needs only a sum over t = |placements on 1-bits|:

        g(w) = sum_t binom(w, t) binom(N-w, k-t)
               * eps1.c0^(N-w-k+t) * eps1.c1^(w-t) * eps2.c0^(k-t) * eps2.c1^t.

    Each term is one array operation over the rows. The powers of the eps2
    components are Python's complex ** (numpy's complex power can round
    otherwise, and warn at a zero component). Row i depends on eps2s[i]
    alone, bit for bit.
    Identical spinors are fine (the sum degenerates to a product state). The
    norm cannot underflow: g is binom(N, k) times the symmetrized product, so
    ||g||^2 = binom(N, k) sum_t binom(k, t) binom(N-k, t) |<eps1|eps2>|^(2t)
    >= binom(N, k) >= 2 for unit spinors and 1 <= k <= N-1.
    """
    n = check_int(n_qubits, "n_qubits")
    k = check_int(k, "copy count k")
    if n < 2:
        raise InvalidParamsError(f"need at least two qubits, got {int_text(n)}")
    if not 1 <= k <= n - 1:
        raise InvalidParamsError(
            f"copy count k must satisfy 1 <= k <= {int_text(n - 1)}, got {int_text(k)}"
        )
    _check_cap(n)
    check_type(eps1, Spinor, "eps1")
    try:
        eps2s = list(eps2s)
    except TypeError:
        raise InvalidParamsError("eps2s must be a sequence of Spinor") from None
    for eps2 in eps2s:
        check_type(eps2, Spinor, "eps2")
    powers = np.array(
        [[(s.c0 ** (k - t), s.c1**t) for t in range(k + 1)] for s in eps2s], dtype=complex
    ).reshape(len(eps2s), k + 1, 2)
    g = np.zeros((len(eps2s), n + 1), dtype=complex)
    for w in range(n + 1):
        for t in range(max(0, k - (n - w)), min(k, w) + 1):
            coeff = (
                math.comb(w, t) * math.comb(n - w, k - t)
                * eps1.c0 ** (n - w - k + t) * eps1.c1 ** (w - t)
            )
            # a zero coefficient makes a term of +-0, and g, which starts at +0, is never -0,
            # so the sum is the same without it: for eps1 = |0>, every term but t = w
            if coeff:
                g[:, w] += coeff * powers[:, t, 0] * powers[:, t, 1]
    amp = g[:, _hamming_weights(n)]
    # each row by its own np.linalg.norm, as one state is; axis=1 would sum in another order.
    # One np.add.reduce over re^2 + im^2 does, and grows the oracle's state= deviations
    # (N = 12, 300 values of a: 1.9e-14 -> 6.3e-14); np.vecdot on the real and imaginary
    # views gives these bits, but needs numpy 2.0, and numpy 1.24 is supported
    amp /= np.array([np.linalg.norm(row) for row in amp]).reshape(-1, 1)
    return amp


def symmetrize_two_spinors(n_qubits: int, k: int, eps1: Spinor, eps2: Spinor) -> FullState:
    """Normalized symmetrized product of N-k copies of eps1 and k copies of eps2: the
    one-row view of symmetrized_states, with its checks and typed errors."""
    return FullState(n_qubits, symmetrized_states(n_qubits, k, eps1, [eps2])[0])


def partial_traces(amplitudes: np.ndarray, dim: int) -> np.ndarray:
    """The reduced density matrix of the leading qubits (dim = 2 or 4) of each row of an
    (m, 2^N) amplitude stack, as an (m, dim, dim) float array.

    Qubit 1 is the most significant bit, so the kept qubits lead each row's index and
    the traced-out tail is the last axis of an (m, dim, 2^N / dim) reshape:
    rho_{x,y} = sum_z psi(x z) psi*(y z). The states under study have real amplitudes, so
    an imaginary part above 1e-12 means a complex state was passed and raises
    InvalidParamsError; so does an entry that is not finite, as in SmallMatrix, with no
    numpy warning first. Both run once over the stack, and matrix i depends on row i
    alone, bit for bit. Any other dim, or amplitudes not such a 2-D numeric stack, raise
    InvalidParamsError before that.
    """
    if not (isinstance(amplitudes, np.ndarray) and amplitudes.ndim == 2
            and amplitudes.dtype.kind in "iufc"):
        raise InvalidParamsError("amplitudes must be a 2-D numeric array")
    width, dim = amplitudes.shape[1], check_int(dim, "dim")
    if dim not in (2, 4):
        raise InvalidParamsError(f"dim must be 2 or 4, got {dim}")
    if width < dim or width & (width - 1):
        raise InvalidParamsError(f"rows must hold 2^N >= {dim} amplitudes, got {width}")
    m = amplitudes.reshape(len(amplitudes), dim, width // dim)
    # an inf amplitude makes inf * 0 in the product; the finiteness check below refuses it
    with np.errstate(invalid="ignore", over="ignore"):
        rho = m @ m.conj().swapaxes(1, 2)
    residue = np.maximum.reduce(np.abs(rho.imag), axis=None, initial=0.0)
    if residue > _REAL_TOL:
        raise InvalidParamsError(
            f"reduced density matrix has imaginary residue {residue:g}; "
            "only real states fit a SmallMatrix"
        )
    if not np.logical_and.reduce(np.isfinite(rho.real), axis=None):
        raise InvalidParamsError("matrix entries must be finite")
    return rho.real


def _reduced(psi: FullState, dim: int) -> SmallMatrix:
    """The one-row view of partial_traces, as a SmallMatrix that it has checked."""
    rho = partial_traces(psi.amplitudes[None], dim)[0]
    return _unchecked(SmallMatrix, dim, tuple(rho.ravel().tolist()))


def partial_trace_to_two(psi: FullState) -> SmallMatrix:
    """Exact reduced density matrix of qubits 1 and 2,
    rho_{(x1 x2),(y1 y2)} = sum_z psi(x1 x2 z) psi*(y1 y2 z): the one-row view of
    partial_traces(amplitudes, 4).

    Every pair of a symmetric state has this marginal; for another pair of a
    general state, permute the axes of psi.amplitudes.reshape((2,) * n) first.
    """
    check_type(psi, FullState, "psi")
    return _reduced(psi, 4)


def partial_trace_to_one(psi: FullState) -> SmallMatrix:
    """Exact reduced density matrix of qubit 1: the one-row view of
    partial_traces(amplitudes, 2)."""
    check_type(psi, FullState, "psi")
    return _reduced(psi, 2)
