import math

import numpy as np
import pytest

from dicketangle.errors import NonFiniteError, WrongDimensionError
from dicketangle.smallmat import SmallMatrix

# the a=0, N=4, k=2 partial transpose; its spectrum is (1/2, 1/3, 1/3, -1/6)
PT_420 = SmallMatrix(
    4,
    (
        1 / 6, 0, 0, 1 / 3,
        0, 1 / 3, 0, 0,
        0, 0, 1 / 3, 0,
        1 / 3, 0, 0, 1 / 6,
    ),
)


def test_small_matrix_rejects_bad_dim():
    with pytest.raises(WrongDimensionError):
        SmallMatrix(5, tuple(range(25)))
    with pytest.raises(WrongDimensionError):
        SmallMatrix(2, (1.0, 2.0, 3.0))
    with pytest.raises(WrongDimensionError):
        SmallMatrix(2, 5)
    with pytest.raises(WrongDimensionError):
        SmallMatrix(1.5, (1.0,))
    # an integral dim is stored as an int, so to_array() can reshape by it
    m = SmallMatrix(2.0, (1.0, 0.0, 0.0, 1.0))
    assert type(m.dim) is int
    assert m.to_array().shape == (2, 2)


def test_small_matrix_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        SmallMatrix(2, (1.0, 0.0, 0.0, math.nan))
    with pytest.raises(NonFiniteError):
        SmallMatrix(2, (1.0, 0.0, math.inf, 0.0))
    with pytest.raises(NonFiniteError):
        SmallMatrix(2, "abcd")
    with pytest.raises(NonFiniteError):
        SmallMatrix(2, [None] * 4)
    with pytest.raises(NonFiniteError):
        SmallMatrix(2, (1.0, 0.0, 0.0, 1j))


def test_entry_and_rows_round_trip():
    m = SmallMatrix(2, np.array([1, 2, 3, 4]))
    assert m.entries == (1.0, 2.0, 3.0, 4.0)
    assert all(type(x) is float for x in m.entries)
    assert np.array_equal(m.to_array(), np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_trace_norm_of_partial_transpose():
    # spectrum (1/2, 1/3, 1/3, -1/6) sums in absolute value to 4/3
    vals = np.linalg.eigvalsh(PT_420.to_array())
    assert np.abs(vals).sum() == pytest.approx(4 / 3, abs=1e-14)
    assert vals.tolist() == pytest.approx([-1 / 6, 1 / 3, 1 / 3, 1 / 2], abs=1e-14)
