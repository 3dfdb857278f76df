import decimal
import fractions
import math
import random

import numpy as np
import pytest

from dicketangle import dicke
from dicketangle.dicke import (
    DickeParams,
    amplitude_rows,
    amplitudes,
)
from dicketangle.errors import InvalidParamsError
from dicketangle.marginals import marginal_elements

# modest sizes exhaustively, then spot checks out to the largest supported runs
THINNED_N = list(range(2, 31)) + [40, 50, 75, 100, 150, 200]


def _scalar_points():
    """The 2,048 (N, k, a) of the bench's scalar-points workload at seed 1 (bench/run.py),
    unshuffled: two seeded a in {0, 0.001, ..., 1} for each (N, k) with N <= 64."""
    rng = random.Random("scalar-points:1")
    pairs = [(n, k) for n in range(2, 65) for k in range(1, n // 2 + 1)]
    return [(n, k, rng.randrange(1001) / 1000) for n, k in pairs * 2]


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


def _cg_applied(n, rungs):
    """(c_+1^2, c_0^2, c_-1^2) at r = 0..rungs-1 as marginal_elements applies them.

    For the amplitude row beta = e_r (the Dicke state with r excitations), A, 2D
    and F are exactly the squares of the coefficients it computed at r.
    """
    A, _, _, D, _, F = marginal_elements(n, np.eye(rungs))
    return A, 2.0 * D, F


@pytest.mark.parametrize("n", [2, 3, 10, 101])
def test_cg_bottom_of_ladder(n):
    # no excitation: the pair splits off as |00> alone
    assert [float(col[0]) for col in marginal_elements(n, np.eye(1))] == [1.0] + [0.0] * 5


def test_cg_three_qubit_single_excitation():
    plus, zero, minus = (float(x[1]) for x in _cg_applied(3, 2))
    assert plus == pytest.approx(1 / 3, abs=1e-15)
    assert zero == pytest.approx(2 / 3, abs=1e-15)
    assert minus == 0.0


def test_cg_four_qubit_double_excitation():
    plus, zero, minus = (float(x[2]) for x in _cg_applied(4, 3))
    assert plus == pytest.approx(1 / 6, abs=1e-15)
    assert zero == pytest.approx(2 / 3, abs=1e-15)
    assert minus == pytest.approx(1 / 6, abs=1e-15)


@pytest.mark.parametrize("n", [2, 3, 5, 17, 50, 60, 10**6])
def test_cg_exact_zeros_at_ladder_edges(n):
    # integer numerators must produce exact zeros, not rounding residue: c_-1 vanishes
    # at r = 0, 1, so F is exactly 0 at k = 1, and c_+1 at r = N - 1, which k <= N//2
    # reaches only at N = 2
    grid = [0.0, 1e-300, 0.3, 0.5, 0.99, 1.0]
    elems = marginal_elements(n, amplitude_rows(n, 1, grid))
    assert elems[5].tolist() == [0.0] * len(grid)
    if n == 2:
        assert elems[0][0] == 0.0


@pytest.mark.parametrize("n", THINNED_N)
def test_cg_normalization(n):
    plus, zero, minus = _cg_applied(n, n // 2 + 1)
    total = plus + zero + minus
    assert total.tolist() == pytest.approx([1.0] * (n // 2 + 1), abs=1e-14)


@pytest.mark.parametrize("n", [2, 3, 17, 1000])
def test_cg_matches_integer_formula(n):
    applied = _cg_applied(n, n // 2 + 1)
    for r in range(n // 2 + 1):
        want = tuple(c * c for c in _cg_reference(n, r))
        assert tuple(float(x[r]) for x in applied) == want, (n, r)


def test_params_validation():
    DickeParams(2, 1, 0.0)
    DickeParams(100, 50, 1.0)
    # N - r is exact in float up to N = 2**53, and not above it
    assert amplitudes(DickeParams(2**53, 2, 0.5))[0] > 0.0
    with pytest.raises(InvalidParamsError, match=r"at most 2\*\*53 = 9007199254740992 qubits"):
        DickeParams(2**53 + 1, 1, 0.5)
    # an int of more than 4300 digits is named by its bit length, which str() needs no limit for
    with pytest.raises(InvalidParamsError, match="got <16610-bit integer>"):
        DickeParams(10**5000, 1, 0.5)
    with pytest.raises(InvalidParamsError, match="got -<16610-bit integer>"):
        DickeParams(10, -(10**5000), 0.5)
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


def test_params_name_an_out_of_range_overlap_as_check_a_values_does():
    cases = [
        (1.5, "1.5"), (-0.1, "-0.1"), (float("nan"), "nan"), (float("-inf"), "-inf"),
        (np.float64(2.0), "2.0"), (decimal.Decimal("1.25"), "1.25"), (2, "2.0"),
    ]
    for a, shown in cases:
        with pytest.raises(InvalidParamsError) as refused:
            DickeParams(10, 3, a)
        assert str(refused.value) == f"non-orthogonality a must lie in [0, 1], got {shown}"
        with pytest.raises(InvalidParamsError) as refused:
            dicke.check_a_values(a)
        assert str(refused.value) == f"non-orthogonality a must lie in [0, 1], got {shown}"
    p = DickeParams(10, 3, -0.0)
    assert p.a == 0.0 and math.copysign(1.0, p.a) == -1.0
    assert type(DickeParams(10, 3, np.float64(0.5)).a) is float


def test_check_number_returns_a_python_float_unchanged(monkeypatch):
    for value in (0.0, -0.0, float("nan"), float("inf"), float("-inf"), 0.3):
        assert dicke.check_number(value, "x") is value
    assert math.copysign(1.0, dicke.check_number(-0.0, "x")) == -1.0
    # every other value takes check_numbers' path, and reads its messages
    seen = []
    check_numbers = dicke.check_numbers

    def spy(values, name):
        seen.append(values)
        return check_numbers(values, name)

    monkeypatch.setattr(dicke, "check_numbers", spy)
    dicke.check_number(0.5, "x")
    assert seen == []
    for value, want in ((np.float64(0.25), 0.25), (decimal.Decimal("0.25"), 0.25), (True, 1.0)):
        got = dicke.check_number(value, "x")
        assert type(got) is float and got == want
        assert seen[-1] is value
    for value, message in (
        ("1", "x must be a real number, got str"),
        (1j, "x must be a real number, got complex"),
        ([0.5, 0.5], "x must be a single number, got shape (2,)"),
    ):
        with pytest.raises(InvalidParamsError) as refused:
            dicke.check_number(value, "x")
        assert seen[-1] is value
        assert str(refused.value) == message


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


@pytest.mark.parametrize(
    "n,k",
    [(2, 1), (9, 4), (100, 50), (1000, 3), (2000, 500), (10**6, 3), (2**53, 1), (2**53, 7)],
)
def test_amplitude_rows_match_scalar_amplitudes(n, k):
    grid = [0.0, 1e-300, 0.05, 0.37, 0.5, 0.9, 0.99, 1.0 - 1e-9, 1.0]
    rows = amplitude_rows(n, k, grid)
    assert rows.shape == (len(grid), k + 1)
    for a, row in zip(grid, rows):
        assert np.max(np.abs(row - _exact_amplitudes(n, k, a))) <= 2e-15, (n, k, a)
        # amplitudes is the one-row view, bit for bit
        assert amplitudes(DickeParams(n, k, a)) == tuple(row.tolist()), (n, k, a)
    # the endpoints take the general recursion, with log(b/a) = +-inf
    assert rows[0].tolist() == [0.0] * k + [1.0]
    assert rows[-1].tolist() == [1.0] + [0.0] * k
    assert not np.signbit(rows).any()
    ends = [1.0, 0.0, 1.0]
    one_by_one = np.stack([amplitude_rows(n, k, [a])[0] for a in ends])
    assert amplitude_rows(n, k, ends).tobytes() == one_by_one.tobytes()


def _amplitude_squares(n, k, a):
    """beta_r^2 in the current decimal context, from the exact binary value of a.

    beta_r^2 is proportional to (N-r)! / (r! (k-r)!^2) a^(2(k-r)) b^(2r), whose
    factorial part, scaled by (k!)^2 / (N-k)!, is the integer
    (N-r)!/(N-k)! binom(k, r) k!/(k-r)!.
    """
    a2 = decimal.Decimal(a) ** 2
    b2 = 1 - a2
    # decimal rejects 0 ** 0, so the powers are built up by products
    a_pow, b_pow = [decimal.Decimal(1)], [decimal.Decimal(1)]
    for _ in range(k):
        a_pow.append(a_pow[-1] * a2)
        b_pow.append(b_pow[-1] * b2)
    sq = [
        math.perm(n - r, k - r) * math.comb(k, r) * math.perm(k, r) * a_pow[k - r] * b_pow[r]
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
