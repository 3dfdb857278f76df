"""Canonical one-parameter Dicke-class states.

A pure symmetric state of N qubits built from two spinors (one repeated
N-k times, the other k times) can always be brought by local unitaries to
the canonical form

    |Psi> = sum_{r=0}^{k} beta_r |N/2, N/2 - r>,

where |N/2, N/2 - r> is the Dicke state with r excitations and the real,
nonnegative amplitudes beta_r depend on a single overlap parameter
a = |<eps1|eps2>| in [0, 1] (b = sqrt(1 - a^2)). This module evaluates
those amplitudes stably at any N: a call reads only the logs of r + 1 and
N - r for r = 0..k-1, so its cost grows with k but not with N.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError

# constants of the engine's array arithmetic: numpy converts a Python float operand on every
# call, and reads a 0-d array as it is, so these save that step and change no bit
_ZERO, _HALF, _ONE, _TWO, _FOUR = (np.array(x) for x in (0.0, 0.5, 1.0, 2.0, 4.0))


def check_int(value, name: str) -> int:
    """`value` as an int if it is integral, as 4, 4.0 and np.int64(4) are; else raise
    InvalidParamsError."""
    try:
        if value == int(value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidParamsError(f"{name} must be an integer, got {value!r}")


def int_text(value: int) -> str:
    """An int for an error message: its digits, or its bit length when str() refuses
    an int of that many digits (sys.get_int_max_str_digits)."""
    try:
        return str(value)
    except ValueError:
        return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit integer>"


# how a refused dtype kind is named; other refused kinds are named by their dtype
_KIND_NAMES = {"U": "str", "S": "bytes", "c": "complex"}


def check_numbers(values, name: str, dtype: type = float) -> np.ndarray:
    """`values`, a number or an array or nested sequence of numbers, as a new array of
    `dtype` (float or complex): the one rule for every number that enters the package.

    A str, bytes or None, also inside a list or an array, raises InvalidParamsError, and
    so does a complex number where dtype is float; Decimal and Fraction are numbers. An int
    past float range, as 10**400 is, raises it with "<name> must lie within float range". The
    decision reads dtype.kind, and scans object arrays only; callers check shape and finiteness.
    """
    real = dtype is float
    try:
        arr = np.asarray(values)
        kind = arr.dtype.kind
        if kind == "O":
            # None, Decimal, Fraction and ints past 64 bits make an object array
            odd = [x for x in arr.flat if not isinstance(x, numbers.Number)
                   or real and isinstance(x, numbers.Complex) and not isinstance(x, numbers.Real)]
            got = ("None" if odd[0] is None else type(odd[0]).__name__) if odd else None
        else:
            numeric = "biuf" if real else "biufc"
            got = None if kind in numeric else _KIND_NAMES.get(kind, str(arr.dtype))
        if got is None:
            return arr.astype(dtype)
    except OverflowError as exc:
        raise InvalidParamsError(f"{name} must lie within float range") from exc
    except (TypeError, ValueError):
        got = "a ragged sequence or an unconvertible value"
    raise InvalidParamsError(
        f"{name} must be {'a real number' if real else 'a number'}, got {got}"
    )


def check_number(value, name: str) -> float:
    """`value` as a Python float, by check_numbers' rule, if it is a single number.

    A Python float (nan, inf and -0.0 among them) already meets that rule and comes back
    unchanged, without a numpy round trip; finiteness stays the caller's check. Every
    other value, np.float64, Decimal and bool included, goes through check_numbers.
    """
    if type(value) is float:
        return value
    arr = check_numbers(value, name)
    if arr.ndim:
        raise InvalidParamsError(f"{name} must be a single number, got shape {arr.shape}")
    return arr.item()


def check_type(value, cls: type | tuple[type, ...], name: str) -> None:
    """Raise InvalidParamsError, naming the expected types, unless `value` is an instance
    of `cls`, a type or a tuple of types; the message names type(None) as None."""
    if not isinstance(value, cls):
        types = cls if isinstance(cls, tuple) else (cls,)
        expected = " or ".join("None" if c is type(None) else c.__name__ for c in types)
        raise InvalidParamsError(f"{name} must be a {expected}, got {type(value).__name__}")


def _unchecked(cls: type, *values):
    """An instance of the frozen dataclass cls with its fields set to values, in field
    order, built without running __post_init__: for values the package has just built,
    whose checks the tests hold instead."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values))
    return obj


def check_n_k(n, k) -> tuple[int, int]:
    """Validate (N, k) as integers with 2 <= N <= 2**53 and 1 <= k <= N//2; return them as ints.

    Above 2**53, N - r is no longer exact in float, so the amplitudes would be meaningless.
    """
    n, k = check_int(n, "n_qubits"), check_int(k, "degeneracy")
    if n < 2:
        raise InvalidParamsError(f"need at least 2 qubits, got {int_text(n)}")
    if n > 2**53:
        raise InvalidParamsError(f"need at most 2**53 = {2**53} qubits, got {int_text(n)}")
    if not 1 <= k <= n // 2:
        raise InvalidParamsError(
            f"degeneracy k must satisfy 1 <= k <= N//2 = {n // 2}, got {int_text(k)}"
        )
    return n, k


def check_a_values(a_values) -> np.ndarray:
    """Overlaps a (a number or a 1-D sequence) as a 1-D float array, each finite and in [0, 1]."""
    a = check_numbers(a_values, "non-orthogonality a")
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
        a = check_number(self.non_orthogonality, "non-orthogonality a")
        # nan fails both comparisons; check_a_values then raises its out-of-range error
        if not 0.0 <= a <= 1.0:
            check_a_values(a)
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


def amplitude_rows(n_qubits: int, degeneracy: int, a_values) -> np.ndarray:
    """Canonical amplitudes beta_0..beta_k at each overlap a, as an (m, k+1) array.

    Row i is the amplitude vector of (N, k, a_values[i]). Up to normalization,

        beta_r  ~  sqrt(N! (N-r)! / r!) * a^(k-r) * b^r / ((N-k)! (k-r)!),

    so successive amplitudes have the ratio

        beta_{r+1} / beta_r = (k - r) (b / a) / sqrt((N - r)(r + 1)),

    which decreases with r. The logs of these ratios are summed outward from
    the largest amplitude, so every partial sum that matters stays small:
    log-factorials of N in the thousands would carry absolute errors near
    1e-12 into every amplitude. The a-independent part of each step,
    log(k - r) - (log(N - r) + log(r + 1)) / 2, strictly decreases in r, in
    float as well as exactly, and adding log(b/a) rounds monotonically, so in
    every row the positive steps come first: the sums before the peak are the
    sums of the positive steps, taken downward, and those after it the sums of
    the others, taken upward. Each row is then renormalized to unit Euclidean
    norm. The endpoints are exact one-hot rows: a = 0 gives the Dicke state
    (beta_k = 1), a = 1 the product state (beta_0 = 1). The arguments are
    assumed valid (check_n_k, check_a_values).
    """
    n, k = n_qubits, degeneracy
    a = np.asarray(a_values, dtype=float)
    r = np.arange(k, dtype=float)
    # log(r + 1) for r = 0..k-1, reversed, is log(k - r)
    log_r1, log_n_r = np.log(np.array([r + _ONE, n - r]))
    # log(b/a) is +inf at a = 0 and -inf at a = 1: every step then has that sign, the
    # other logs are -inf, and exp gives the one-hot row exactly
    with np.errstate(divide="ignore"):
        log_b_over_a = np.log(np.sqrt((_ONE - a) * (_ONE + a))) - np.log(a)
    steps = (log_r1[::-1] - _HALF * (log_n_r + log_r1)) + log_b_over_a[:, None]
    logs = np.zeros((len(a), k + 1))
    np.add.accumulate(np.minimum(steps, _ZERO), axis=1, out=logs[:, 1:])
    # down[:, r] sums the positive steps r..k-1, from k-1 down; down[:, k] stays 0
    down = np.zeros_like(logs)
    np.add.accumulate(np.maximum(steps, _ZERO)[:, ::-1], axis=1, out=down[:, -2::-1])
    logs -= down
    raw = np.exp(logs, out=logs)
    return raw / np.sqrt(np.add.reduce(raw * raw, axis=1, keepdims=True))


def amplitudes(params: DickeParams) -> tuple[float, ...]:
    """Canonical amplitudes (beta_0, ..., beta_k) for the given (N, k, a).

    The one-row view of amplitude_rows; DickeParams has already checked (N, k, a).
    """
    check_type(params, DickeParams, "params")
    return tuple(amplitude_rows(params.n_qubits, params.degeneracy, [params.a])[0].tolist())
