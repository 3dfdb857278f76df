import decimal
import math

import numpy as np
import pytest

from dicketangle.dicke import DickeParams, amplitude_rows
from dicketangle.errors import InvalidParamsError, NotDensityMatrixError
from dicketangle.marginals import (
    SingleQubitMarginal,
    TwoQubitMarginal,
    marginal_elements,
    marginal_matrix,
    single_qubit_marginal,
    triplet_blocks,
    two_qubit_marginal,
)
from dicketangle.smallmat import SmallMatrix

from test_dicke import _amplitude_squares, _cg_squares


def _grid_params(n_max=10, a_steps=11):
    for n in range(2, n_max + 1):
        for k in range(1, n // 2 + 1):
            for a in np.linspace(0.0, 1.0, a_steps):
                yield DickeParams(n, k, float(a))


def test_w_state_marginal():
    m = two_qubit_marginal(DickeParams(3, 1, 0.0))
    assert m.A == pytest.approx(1 / 3, abs=1e-15)
    assert m.D == pytest.approx(1 / 3, abs=1e-15)
    assert m.B == 0.0
    assert m.C == 0.0
    assert m.E == 0.0
    assert m.F == 0.0


def test_half_filled_four_qubit_marginal():
    m = two_qubit_marginal(DickeParams(4, 2, 0.0))
    assert m.A == pytest.approx(1 / 6, abs=1e-15)
    assert m.D == pytest.approx(1 / 3, abs=1e-15)
    assert m.F == pytest.approx(1 / 6, abs=1e-15)
    assert m.B == 0.0
    assert m.C == 0.0
    assert m.E == 0.0


@pytest.mark.parametrize("n,k", [(2, 1), (5, 2), (9, 4), (50, 25)])
def test_product_state_marginal_is_pure(n, k):
    # a = 1 collapses the state to |0...0>, whose pair marginal is |00><00|
    m = two_qubit_marginal(DickeParams(n, k, 1.0))
    assert m.A == 1.0
    assert (m.B, m.C, m.D, m.E, m.F) == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_marginal_matrix_layout():
    m = TwoQubitMarginal(DickeParams(4, 2, 0.5), 0.4, 0.05, 0.01, 0.2, 0.02, 0.2)
    assert marginal_matrix(m).to_array().tolist() == [
        [0.4, 0.05, 0.05, 0.01],
        [0.05, 0.2, 0.2, 0.02],
        [0.05, 0.2, 0.2, 0.02],
        [0.01, 0.02, 0.02, 0.2],
    ]


_R = math.sqrt(0.5)
# rows |00>, |psi+>, |11> of the triplet basis, and the singlet |psi->
TRIPLET = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, _R, _R, 0.0], [0.0, 0.0, 0.0, 1.0]])
SINGLET = np.array([0.0, _R, -_R, 0.0])


def _blocks(m):
    R, P, singlet = triplet_blocks(*(np.array([x]) for x in (m.A, m.B, m.C, m.D, m.E, m.F)))
    return R[0], P[0], singlet[0]


def test_partial_transpose_of_half_filled_point():
    _, P, singlet = _blocks(two_qubit_marginal(DickeParams(4, 2, 0.0)))
    want = [
        [1 / 6, 0.0, 1 / 3],
        [0.0, 1 / 3, 0.0],
        [1 / 3, 0.0, 1 / 6],
    ]
    assert np.allclose(P, want, atol=1e-15, rtol=0.0)
    assert singlet == pytest.approx(1 / 3, abs=1e-15)


def test_partial_transpose_matches_axis_swap():
    """R, P and D - C agree with the triplet and singlet projections of rho and of its axis swap."""
    for params in _grid_params(n_max=8, a_steps=5):
        m = two_qubit_marginal(params)
        R, P, singlet = _blocks(m)
        arr = marginal_matrix(m).to_array()
        swapped = arr.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        assert np.allclose(TRIPLET @ arr @ TRIPLET.T, R, atol=1e-15, rtol=0.0)
        assert np.allclose(TRIPLET @ swapped @ TRIPLET.T, P, atol=1e-15, rtol=0.0)
        assert SINGLET @ swapped @ SINGLET == pytest.approx(singlet, abs=1e-15)
        assert np.allclose(TRIPLET @ swapped @ SINGLET, 0.0, atol=1e-15, rtol=0.0)


def test_marginal_is_density_matrix_across_grid():
    for params in _grid_params():
        m = two_qubit_marginal(params)
        rho = marginal_matrix(m)
        assert np.trace(rho.to_array()) == pytest.approx(1.0, abs=1e-12)
        low = np.linalg.eigvalsh(rho.to_array())[0]
        assert low >= -1e-12, f"{params}: eigenvalue {low}"


def test_single_qubit_examples():
    w = single_qubit_marginal(two_qubit_marginal(DickeParams(3, 1, 0.0)))
    assert np.allclose(w.rho.to_array(), [[2 / 3, 0.0], [0.0, 1 / 3]], atol=1e-15, rtol=0.0)

    half = single_qubit_marginal(two_qubit_marginal(DickeParams(4, 2, 0.0)))
    assert np.allclose(half.rho.to_array(), [[1 / 2, 0.0], [0.0, 1 / 2]], atol=1e-15, rtol=0.0)

    prod = single_qubit_marginal(two_qubit_marginal(DickeParams(4, 2, 1.0)))
    assert prod.rho.to_array().tolist() == [[1.0, 0.0], [0.0, 0.0]]


def test_single_qubit_consistent_with_tracing_the_matrix():
    for params in _grid_params(n_max=9, a_steps=7):
        m = two_qubit_marginal(params)
        arr = marginal_matrix(m).to_array()
        contracted = np.trace(arr.reshape(2, 2, 2, 2), axis1=1, axis2=3)
        rho1 = single_qubit_marginal(m).rho.to_array()
        assert np.allclose(rho1, contracted, atol=1e-15, rtol=0.0)


def test_two_qubit_marginal_validation():
    p = DickeParams(4, 2, 0.5)
    with pytest.raises(InvalidParamsError):
        TwoQubitMarginal(p, 0.4, 0.0, 0.0, 0.2, 0.0, 0.3)  # trace 1.1
    with pytest.raises(InvalidParamsError):
        TwoQubitMarginal(p, -0.2, 0.0, 0.0, 0.5, 0.0, 0.2)
    with pytest.raises(InvalidParamsError):
        TwoQubitMarginal(p, math.nan, 0.0, 0.0, 0.3, 0.0, 0.4)


def test_single_qubit_marginal_validation():
    p = DickeParams(4, 2, 0.5)
    with pytest.raises(NotDensityMatrixError):
        SingleQubitMarginal(p, SmallMatrix(2, (0.5, 0.1, -0.1, 0.5)))
    with pytest.raises(NotDensityMatrixError):
        SingleQubitMarginal(p, SmallMatrix(2, (0.7, 0.0, 0.0, 0.7)))
    with pytest.raises(NotDensityMatrixError):
        SingleQubitMarginal(p, SmallMatrix(2, (1.4, 0.0, 0.0, -0.4)))
    with pytest.raises(NotDensityMatrixError):
        SingleQubitMarginal(p, SmallMatrix(3, (0.0,) * 9))


def _reference_elements(n, k, a):
    """A..F in 60-digit decimal from the exact binary value of a and the integer
    Clebsch-Gordan formula, each element rounded to float once."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        beta = [x.sqrt() for x in _amplitude_squares(n, k, a)]
        cg = [
            [(decimal.Decimal(x.numerator) / x.denominator).sqrt() for x in _cg_squares(n, r)]
            for r in range(k + 1)
        ]

        def total(shift, i, j):
            # sum_r beta_r beta_{r+shift} c_i^(r) c_j^(r+shift)
            terms = (
                beta[r] * beta[r + shift] * cg[r][i] * cg[r + shift][j]
                for r in range(k + 1 - shift)
            )
            return sum(terms, decimal.Decimal(0))

        half = decimal.Decimal(1) / 2
        root_half = half.sqrt()
        return [
            float(x)
            for x in (
                total(0, 0, 0),
                root_half * total(1, 0, 1),
                total(2, 0, 2),
                half * total(0, 1, 1),
                root_half * total(1, 1, 2),
                total(0, 2, 2),
            )
        ]


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (8, 4), (100, 2), (1000, 500)])
def test_marginal_elements_match_scalar_marginal(n, k):
    """marginal_elements against the 60-digit reference, and two_qubit_marginal as its
    row i, bit for bit."""
    grid = [0.0, 0.2, 0.5, 0.83, 1.0]
    elems = marginal_elements(n, amplitude_rows(n, k, grid))
    for i, a in enumerate(grid):
        row = [float(col[i]) for col in elems]
        assert np.allclose(row, _reference_elements(n, k, a), rtol=1e-12, atol=1e-15), (n, k, a)
        m = two_qubit_marginal(DickeParams(n, k, a))
        assert [m.A, m.B, m.C, m.D, m.E, m.F] == row, (n, k, a)
