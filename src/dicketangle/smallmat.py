"""A validated value type for tiny (2x2 .. 4x4) real matrices.

The oracle's reduced density matrices, the closed-form marginal_matrix and
the single-qubit marginal's rho are returned as SmallMatrix: a dim x dim
real matrix of dim 2, 3 or 4, stored row-major as a flat tuple of finite
floats. The constructor is the one place its entries are converted and
checked; everything else (traces, spectra, norms) is taken with numpy on
to_array().
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dicke import check_int
from .errors import NonFiniteError, WrongDimensionError

_ALLOWED_DIMS = (2, 3, 4)


@dataclass(frozen=True)
class SmallMatrix:
    """A dim x dim real matrix stored row-major as a flat tuple."""

    dim: int
    entries: tuple[float, ...]

    def __post_init__(self):
        dim = check_int(self.dim, "dim", WrongDimensionError)
        if dim not in _ALLOWED_DIMS:
            raise WrongDimensionError(f"dim must be one of {_ALLOWED_DIMS}, got {dim}")
        try:
            entries = tuple(self.entries)
        except TypeError as exc:
            raise WrongDimensionError(f"entries must be a sequence, got {self.entries!r}") from exc
        if len(entries) != dim * dim:
            raise WrongDimensionError(f"need {dim * dim} entries for dim {dim}, got {len(entries)}")
        try:
            entries = tuple(map(float, entries))
        except (TypeError, ValueError) as exc:
            raise NonFiniteError(f"matrix entries must be real numbers, got {entries!r}") from exc
        except OverflowError as exc:
            raise NonFiniteError("matrix entries must lie within float range") from exc
        if not all(map(math.isfinite, entries)):
            raise NonFiniteError("matrix entries must be finite")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", entries)

    def to_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=float).reshape(self.dim, self.dim)
