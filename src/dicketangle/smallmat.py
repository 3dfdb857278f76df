"""A validated value type for tiny (2x2 and 4x4) real matrices.

The oracle's reduced density matrices, the closed-form marginal_matrix and
the single-qubit marginal's rho are returned as SmallMatrix: a dim x dim
real matrix of dim 2 or 4, stored row-major as a flat tuple of finite
floats. The constructor is the one place its entries are converted and
checked; everything else (traces, spectra, norms) is taken with numpy on
to_array().
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dicke import check_int, check_numbers
from .errors import InvalidParamsError

_ALLOWED_DIMS = (2, 4)


@dataclass(frozen=True)
class SmallMatrix:
    """A dim x dim real matrix stored row-major as a flat tuple."""

    dim: int
    entries: tuple[float, ...]

    def __post_init__(self):
        dim = check_int(self.dim, "dim")
        if dim not in _ALLOWED_DIMS:
            raise InvalidParamsError(f"dim must be one of {_ALLOWED_DIMS}, got {dim}")
        entries = check_numbers(self.entries, "matrix entries")
        if entries.shape != (dim * dim,):
            raise InvalidParamsError(f"need {dim * dim} entries, got shape {entries.shape}")
        if not np.isfinite(entries).all():
            raise InvalidParamsError("matrix entries must be finite")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", tuple(entries.tolist()))

    def to_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=float).reshape(self.dim, self.dim)
