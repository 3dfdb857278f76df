"""A validated value type for tiny (2x2 .. 4x4) real matrices.

The oracle's reduced density matrices, the closed-form marginal_matrix and
the single-qubit marginal's rho are returned as SmallMatrix: a dim x dim
real matrix of dim 2, 3 or 4 with finite entries, checked on construction.
Spectra are taken with numpy/LAPACK on to_array().
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, WrongDimensionError

_ALLOWED_DIMS = (2, 3, 4)


@dataclass(frozen=True)
class SmallMatrix:
    """A dim x dim real matrix stored row-major as a flat tuple."""

    dim: int
    entries: tuple[float, ...]

    def __post_init__(self):
        if self.dim not in _ALLOWED_DIMS:
            raise WrongDimensionError(f"dim must be one of {_ALLOWED_DIMS}, got {self.dim}")
        entries = tuple(float(x) for x in self.entries)
        if len(entries) != self.dim * self.dim:
            raise WrongDimensionError(
                f"need {self.dim * self.dim} entries for dim {self.dim}, got {len(entries)}"
            )
        if not all(math.isfinite(x) for x in entries):
            raise NonFiniteError("matrix entries must be finite")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows) -> "SmallMatrix":
        rows = [list(map(float, row)) for row in rows]
        dim = len(rows)
        if any(len(row) != dim for row in rows):
            raise WrongDimensionError("matrix rows must form a square array")
        return cls(dim, tuple(x for row in rows for x in row))

    def to_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=float).reshape(self.dim, self.dim)

    def trace(self) -> float:
        return sum(self.entries[:: self.dim + 1])

    def max_abs(self) -> float:
        return max(abs(x) for x in self.entries)
