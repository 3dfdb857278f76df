"""Canonical one-parameter Dicke-class states.

A pure symmetric state of N qubits built from two spinors (one repeated
N-k times, the other k times) can always be brought by local unitaries to
the canonical form

    |Psi> = sum_{r=0}^{k} beta_r |N/2, N/2 - r>,

where |N/2, N/2 - r> is the Dicke state with r excitations and the real,
nonnegative amplitudes beta_r depend on a single overlap parameter
a = |<eps1|eps2>| in [0, 1] (b = sqrt(1 - a^2)). This module evaluates
those amplitudes stably for N into the thousands, plus the per-N table of
Clebsch-Gordan coefficients that couple a qubit pair (j2 = 1) out of the
symmetric multiplet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DicketangleError, InvalidParamsError, OutOfRangeError


def check_int(value, name: str, error: type[DicketangleError] = InvalidParamsError) -> int:
    """`value` as an int if it is integral, as 4, 4.0 and np.int64(4) are; else raise `error`."""
    try:
        if value == int(value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"{name} must be an integer, got {value!r}")


def check_n_k(n, k) -> tuple[int, int]:
    """Validate (N, k) as integers with N >= 2 and 1 <= k <= N//2; return them as ints."""
    n, k = check_int(n, "n_qubits"), check_int(k, "degeneracy")
    if n < 2:
        raise InvalidParamsError(f"need at least 2 qubits, got {n}")
    if not 1 <= k <= n // 2:
        raise InvalidParamsError(f"degeneracy k must satisfy 1 <= k <= N//2 = {n // 2}, got {k}")
    return n, k


def check_a_values(a_values) -> np.ndarray:
    """Validate overlaps a (a number or a 1-D sequence) as finite values in [0, 1].

    Returns them as a 1-D float array.
    """
    try:
        a = np.asarray(a_values)
        # a float cast keeps only the real part of complex input and turns None into nan
        odd = [x for x in a.flat if x is None or np.iscomplexobj(x)] if a.dtype.kind in "cO" else []
        if not odd:
            a = a.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise InvalidParamsError("non-orthogonality a must be a real number") from exc
    if odd:
        got = "None" if odd[0] is None else "complex input"
        raise InvalidParamsError(f"non-orthogonality a must be a real number, got {got}")
    if a.ndim > 1:
        raise InvalidParamsError(
            f"non-orthogonality a must be a number or a 1-D sequence, got shape {a.shape}"
        )
    a = a.reshape(-1)
    # nan fails both comparisons and +-inf one, so this also rejects non-finite values
    ok = (a >= 0.0) & (a <= 1.0)
    if not ok.all():
        raise InvalidParamsError(f"non-orthogonality a must lie in [0, 1], got {a[~ok][0]}")
    return a


@dataclass(frozen=True)
class DickeParams:
    """Parameters (N, k, a) of a canonical Dicke-class state."""

    n_qubits: int
    degeneracy: int
    non_orthogonality: float

    def __post_init__(self):
        n, k = check_n_k(self.n_qubits, self.degeneracy)
        if np.ndim(self.non_orthogonality) != 0:
            raise InvalidParamsError(
                f"non-orthogonality a must be a single number, got {self.non_orthogonality!r}"
            )
        a = float(check_a_values(self.non_orthogonality)[0])
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "degeneracy", k)
        object.__setattr__(self, "non_orthogonality", a)

    @property
    def a(self) -> float:
        return self.non_orthogonality

    @property
    def b(self) -> float:
        # (1 - a)(1 + a) keeps full relative accuracy as a -> 1, where 1 - a*a does not
        return math.sqrt((1.0 - self.a) * (1.0 + self.a))


@dataclass(frozen=True)
class NTable:
    """Everything about N alone that the amplitudes and marginals need, indexed by r = 0..N.

    `log_int[r]` is log(r) (log_int[0] = -inf is never read); `c_plus`,
    `c_zero`, `c_minus` hold the Clebsch-Gordan coefficients
    (c_+1, c_0, c_-1) of <j1 = N/2 - 1; j2 = 1 | N/2> that split a pair of
    qubits off the Dicke state with r excitations:

        c_+1 = sqrt((N-r)(N-r-1) / (N(N-1)))
        c_0  = sqrt(2 r (N-r)    / (N(N-1)))
        c_-1 = sqrt(r (r-1)      / (N(N-1)))

    The arrays are read-only because one table is shared by every caller.
    """

    log_int: np.ndarray
    c_plus: np.ndarray
    c_zero: np.ndarray
    c_minus: np.ndarray


@lru_cache(maxsize=64)
def n_table(n_qubits: int) -> NTable:
    """The cached NTable of N qubits."""
    n = check_int(n_qubits, "n_qubits", OutOfRangeError)
    if n < 2:
        raise OutOfRangeError(f"need at least 2 qubits, got {n}")
    r = np.arange(n + 1, dtype=float)
    with np.errstate(divide="ignore"):
        log_int = np.log(r)
    # the numerators are integers, exact in float below 2^53, so the
    # degenerate entries (r = 0, 1 for c_-1; r = N-1, N for c_+1) are exact zeros
    denom = float(n * (n - 1))
    arrays = (
        log_int,
        np.sqrt((n - r) * np.maximum(n - r - 1.0, 0.0) / denom),
        np.sqrt(2.0 * r * (n - r) / denom),
        np.sqrt(r * np.maximum(r - 1.0, 0.0) / denom),
    )
    for arr in arrays:
        arr.setflags(write=False)
    return NTable(*arrays)


def amplitude_rows(n_qubits: int, degeneracy: int, a_values) -> np.ndarray:
    """Canonical amplitudes beta_0..beta_k at each overlap a, as an (m, k+1) array.

    Row i is the amplitude vector of (N, k, a_values[i]), evaluated as in
    amplitudes() with array operations. The endpoints are exact one-hot
    rows: a = 0 gives the Dicke state (beta_k = 1), a = 1 the product state
    (beta_0 = 1). The arguments are assumed valid (check_n_k,
    check_a_values).
    """
    n, k = n_qubits, degeneracy
    a = np.asarray(a_values, dtype=float)
    log_int = n_table(n).log_int
    r = np.arange(k)
    inner = (a > 0.0) & (a < 1.0)
    # endpoint rows are overwritten below; 0.5 keeps their logs finite meanwhile
    a_in = np.where(inner, a, 0.5)
    log_b_over_a = np.log(np.sqrt((1.0 - a_in) * (1.0 + a_in))) - np.log(a_in)
    steps = (log_int[k - r] - 0.5 * (log_int[n - r] + log_int[r + 1])) + log_b_over_a[:, None]
    peak = (steps > 0.0).sum(axis=1, keepdims=True)
    logs = np.zeros((len(a), k + 1))
    logs[:, 1:] = np.cumsum(np.where(r >= peak, steps, 0.0), axis=1)
    logs[:, :-1] -= np.cumsum(np.where(r < peak, steps, 0.0)[:, ::-1], axis=1)[:, ::-1]
    raw = np.exp(logs)
    beta = raw / np.sqrt((raw * raw).sum(axis=1, keepdims=True))
    beta[a == 0.0] = 0.0
    beta[a == 0.0, k] = 1.0
    beta[a == 1.0] = 0.0
    beta[a == 1.0, 0] = 1.0
    return beta


def amplitudes(params: DickeParams) -> tuple[float, ...]:
    """Canonical amplitudes (beta_0, ..., beta_k) for the given (N, k, a).

    Up to normalization,

        beta_r  ~  sqrt(N! (N-r)! / r!) * a^(k-r) * b^r / ((N-k)! (k-r)!),

    so successive amplitudes have the ratio

        beta_{r+1} / beta_r = (k - r) (b / a) / sqrt((N - r)(r + 1)),

    which decreases with r. The logs of these ratios are summed outward from
    the largest amplitude, so every partial sum that matters stays small:
    log-factorials of N in the thousands would carry absolute errors near
    1e-12 into every amplitude. The vector is then renormalized to unit
    Euclidean norm. The endpoints degenerate exactly: a = 0 leaves only
    beta_k (the Dicke state itself), a = 1 only beta_0 (a product state).
    """
    n, k, a, b = params.n_qubits, params.degeneracy, params.a, params.b
    if a == 0.0:
        return (0.0,) * k + (1.0,)
    if a == 1.0:
        return (1.0,) + (0.0,) * k
    log_b_over_a = math.log(b) - math.log(a)
    steps = [
        (math.log(k - r) - 0.5 * (math.log(n - r) + math.log(r + 1))) + log_b_over_a
        for r in range(k)
    ]
    peak = sum(step > 0.0 for step in steps)
    logs = [0.0] * (k + 1)
    for r in range(peak + 1, k + 1):
        logs[r] = logs[r - 1] + steps[r - 1]
    for r in range(peak - 1, -1, -1):
        logs[r] = logs[r + 1] - steps[r]
    raw = [math.exp(x) for x in logs]
    norm = math.sqrt(math.fsum(x * x for x in raw))
    return tuple(x / norm for x in raw)
