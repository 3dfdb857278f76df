import decimal
import fractions
import math

import numpy as np
import pytest

from dicketangle.dicke import (
    DickeParams,
    amplitude_rows,
    amplitudes,
    n_table,
)
from dicketangle.errors import InvalidParamsError, OutOfRangeError

# modest sizes exhaustively, then spot checks out to the largest supported runs
THINNED_N = list(range(2, 31)) + [40, 50, 75, 100, 150, 200]


def _cg_squares(n, r):
    """(c_+1^2, c_0^2, c_-1^2) of <N/2 - 1; 1 | N/2> at r excitations, as exact rationals."""
    denom = n * (n - 1)
    return (
        fractions.Fraction((n - r) * (n - r - 1), denom),
        fractions.Fraction(2 * r * (n - r), denom),
        fractions.Fraction(r * (r - 1), denom),
    )


def _cg_reference(n, r):
    """(c_+1, c_0, c_-1) as float square roots of _cg_squares."""
    return tuple(math.sqrt(x) for x in _cg_squares(n, r))


def _cg_triple(n, r):
    table = n_table(n)
    return table.c_plus[r], table.c_zero[r], table.c_minus[r]


@pytest.mark.parametrize("n", [2, 3, 10, 101])
def test_cg_bottom_of_ladder(n):
    assert _cg_triple(n, 0) == (1.0, 0.0, 0.0)


def test_cg_three_qubit_single_excitation():
    plus, zero, minus = _cg_triple(3, 1)
    assert plus == pytest.approx(math.sqrt(1 / 3), abs=1e-15)
    assert zero == pytest.approx(math.sqrt(2 / 3), abs=1e-15)
    assert minus == 0.0


def test_cg_four_qubit_double_excitation():
    plus, zero, minus = _cg_triple(4, 2)
    assert plus == pytest.approx(math.sqrt(1 / 6), abs=1e-15)
    assert zero == pytest.approx(math.sqrt(2 / 3), abs=1e-15)
    assert minus == pytest.approx(math.sqrt(1 / 6), abs=1e-15)


@pytest.mark.parametrize("n", [2, 5, 17, 60])
def test_cg_exact_zeros_at_ladder_edges(n):
    # integer numerators must produce exact zeros, not rounding residue
    table = n_table(n)
    assert table.c_minus[1] == 0.0
    assert table.c_plus[n - 1] == 0.0
    assert table.c_plus[n] == 0.0
    assert table.c_zero[n] == 0.0


@pytest.mark.parametrize("n", THINNED_N)
def test_cg_normalization(n):
    table = n_table(n)
    total = table.c_plus**2 + table.c_zero**2 + table.c_minus**2
    assert total.tolist() == pytest.approx([1.0] * (n + 1), abs=1e-14)


def test_cg_out_of_range():
    with pytest.raises(OutOfRangeError):
        n_table(1)
    with pytest.raises(OutOfRangeError):
        n_table(0)
    with pytest.raises(OutOfRangeError):
        n_table(2.5)


def test_params_validation():
    DickeParams(2, 1, 0.0)
    DickeParams(100, 50, 1.0)
    with pytest.raises(InvalidParamsError):
        DickeParams(1, 1, 0.5)
    with pytest.raises(InvalidParamsError):
        DickeParams(4, 0, 0.5)
    with pytest.raises(InvalidParamsError):
        DickeParams(4, 3, 0.5)
    with pytest.raises(InvalidParamsError):
        DickeParams(4, 2, 1.5)
    with pytest.raises(InvalidParamsError):
        DickeParams(4, 2, -0.1)
    # a sequence of overlaps must not be cut down to its first value
    for a in ([0.1, 0.2], [0.5], np.array([0.5])):
        with pytest.raises(InvalidParamsError, match="single number"):
            DickeParams(10, 3, a)
    assert DickeParams(10, 3, np.float64(0.5)).a == 0.5


def test_params_b_complements_a():
    p = DickeParams(6, 2, 0.6)
    assert p.a == 0.6
    assert p.b == pytest.approx(0.8, abs=1e-15)
    assert DickeParams(6, 2, 1.0).b == 0.0


def test_params_b_keeps_relative_accuracy_near_one():
    # 1 - a*a loses ~2.5e-10 relative at a = 1 - 1e-9; (1 - a)(1 + a) is exact there
    a = 1.0 - 1e-9
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        want = float((1 - decimal.Decimal(a) ** 2).sqrt())
    assert DickeParams(6, 2, a).b == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("n", [2, 3, 17, 1000])
def test_n_table_matches_integer_formula(n):
    table = n_table(n)
    for r in range(n + 1):
        assert _cg_triple(n, r) == _cg_reference(n, r), (n, r)
    logs = [math.log(r) for r in range(1, n + 1)]
    assert table.log_int[1:].tolist() == pytest.approx(logs, rel=4.5e-16, abs=0.0)
    assert not table.c_plus.flags.writeable


def test_amplitudes_two_qubit_closed_form():
    """beta for N=2, k=1 reduces to (2a, sqrt(2) b) normalized."""
    for a in np.linspace(0.0, 1.0, 21):
        b = math.sqrt(max(0.0, 1.0 - a * a))
        norm = math.sqrt(4 * a * a + 2 * b * b)
        beta = amplitudes(DickeParams(2, 1, float(a)))
        assert beta[0] == pytest.approx(2 * a / norm, abs=1e-14)
        assert beta[1] == pytest.approx(math.sqrt(2) * b / norm, abs=1e-14)


def test_amplitudes_three_qubit_balanced_point():
    beta = amplitudes(DickeParams(3, 1, 1 / math.sqrt(2)))
    assert beta[0] == pytest.approx(math.sqrt(3) / 2, abs=1e-14)
    assert beta[1] == pytest.approx(1 / 2, abs=1e-14)


def test_amplitudes_endpoints_are_exact():
    beta = amplitudes(DickeParams(100, 50, 1.0))
    assert beta[0] == 1.0
    assert all(x == 0.0 for x in beta[1:])

    beta = amplitudes(DickeParams(100, 50, 0.0))
    assert beta[-1] == 1.0
    assert all(x == 0.0 for x in beta[:-1])


@pytest.mark.parametrize("n", THINNED_N)
def test_amplitudes_normalized_across_family(n):
    for k in range(1, n // 2 + 1):
        for a in np.linspace(0.0, 1.0, 21):
            beta = amplitudes(DickeParams(n, k, float(a)))
            assert len(beta) == k + 1
            total = math.fsum(x * x for x in beta)
            assert abs(total - 1.0) <= 1e-12, f"n={n} k={k} a={a}"
            assert all(x >= 0.0 and math.isfinite(x) for x in beta)


def test_amplitudes_monotone_weight_shift():
    # raising a pushes weight from the top rung toward beta_0
    betas = [amplitudes(DickeParams(8, 3, a)) for a in (0.2, 0.5, 0.8)]
    assert betas[0][3] > betas[1][3] > betas[2][3]
    assert betas[0][0] < betas[1][0] < betas[2][0]


@pytest.mark.parametrize("n,k", [(2, 1), (9, 4), (100, 50), (1000, 3), (2000, 500)])
def test_amplitude_rows_match_scalar_amplitudes(n, k):
    grid = [0.0, 1e-300, 0.05, 0.37, 0.5, 0.9, 0.99, 1.0 - 1e-9, 1.0]
    rows = amplitude_rows(n, k, grid)
    assert rows.shape == (len(grid), k + 1)
    for a, row in zip(grid, rows):
        want = amplitudes(DickeParams(n, k, a))
        assert np.allclose(row, want, rtol=1e-12, atol=1e-15), (n, k, a)
    assert rows[0].tolist() == [0.0] * k + [1.0]
    assert rows[-1].tolist() == [1.0] + [0.0] * k


def _amplitude_squares(n, k, a):
    """beta_r^2 in the current decimal context, from the exact binary value of a.

    beta_r^2 is proportional to (N-r)! / (r! (k-r)!^2) a^(2(k-r)) b^(2r), whose
    factorial part, scaled by (k!)^2, is the integer (N-r)! binom(k, r) k!/(k-r)!.
    """
    a2 = decimal.Decimal(a) ** 2
    b2 = 1 - a2
    # decimal rejects 0 ** 0, so the powers are built up by products
    a_pow, b_pow = [decimal.Decimal(1)], [decimal.Decimal(1)]
    for _ in range(k):
        a_pow.append(a_pow[-1] * a2)
        b_pow.append(b_pow[-1] * b2)
    sq = [
        math.factorial(n - r) * math.comb(k, r) * math.perm(k, r) * a_pow[k - r] * b_pow[r]
        for r in range(k + 1)
    ]
    total = sum(sq)
    return [s / total for s in sq]


def _exact_amplitudes(n, k, a):
    """beta_r from 40-digit squares, rounded once."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        return [float(x.sqrt()) for x in _amplitude_squares(n, k, a)]


@pytest.mark.parametrize("n,k,a", [(1000, 225, 0.0625), (2000, 250, 0.5), (60, 30, 0.83)])
def test_amplitudes_keep_absolute_accuracy_at_large_n(n, k, a):
    # log-factorials near 1e4 carry ~1e-12 absolute error; the ratio sums must not
    want = _exact_amplitudes(n, k, a)
    for got in (amplitudes(DickeParams(n, k, a)), amplitude_rows(n, k, [a])[0].tolist()):
        assert max(abs(x - y) for x, y in zip(got, want)) <= 2e-15
