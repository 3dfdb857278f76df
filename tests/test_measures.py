import math

import numpy as np
import pytest

from dicketangle import measures
from dicketangle.dicke import DickeParams
from dicketangle.errors import (
    InvalidParamsError,
    NotDensityMatrixError,
    NumericalInstabilityError,
    WrongDimensionError,
)
from dicketangle.marginals import (
    SingleQubitMarginal,
    TwoQubitMarginal,
    marginal_matrix,
    single_qubit_marginal,
    two_qubit_marginal,
)
from dicketangle.measures import (
    TangleRecord,
    concurrence_two_qubit,
    negativity_two_qubit,
    one_vs_rest,
    tangle_record,
    tangle_table,
)
from dicketangle.smallmat import SmallMatrix


def _corner_only_concurrence(m):
    """Closed form for marginals with no single-excitation coherence.

    At a = 0 the marginal has B = E = 0, i.e. X structure, for which
    the concurrence is 2 max(0, D - sqrt(A F), C - D).
    """
    return 2.0 * max(0.0, m.D - math.sqrt(m.A * m.F), m.C - m.D)


def test_concurrence_of_bell_projector():
    bell = SmallMatrix(
        4,
        (
            0.0, 0.0, 0.0, 0.0,
            0.0, 0.5, 0.5, 0.0,
            0.0, 0.5, 0.5, 0.0,
            0.0, 0.0, 0.0, 0.0,
        ),
    )
    assert concurrence_two_qubit(bell) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_of_w_marginal():
    rho = marginal_matrix(two_qubit_marginal(DickeParams(3, 1, 0.0)))
    assert concurrence_two_qubit(rho) == pytest.approx(2 / 3, abs=1e-12)


def test_concurrence_of_product_projector_is_zero():
    rho = SmallMatrix(4, (1.0,) + (0.0,) * 15)
    assert concurrence_two_qubit(rho) == 0.0


def test_concurrence_matches_corner_closed_form():
    # at a = 0 an independent closed form exists; the eigenvalue route must agree
    for n in range(2, 13):
        for k in range(1, n // 2 + 1):
            m = two_qubit_marginal(DickeParams(n, k, 0.0))
            got = concurrence_two_qubit(marginal_matrix(m))
            assert got == pytest.approx(_corner_only_concurrence(m), abs=1e-12), (n, k)


def test_concurrence_input_checks():
    with pytest.raises(WrongDimensionError):
        concurrence_two_qubit(SmallMatrix(2, (0.5, 0.0, 0.0, 0.5)))
    with pytest.raises(NotDensityMatrixError):
        concurrence_two_qubit(SmallMatrix(4, tuple(np.eye(4).ravel())))  # trace 4
    bad_psd = np.diag([1.5, -0.5, 0.0, 0.0])
    with pytest.raises(NotDensityMatrixError):
        concurrence_two_qubit(SmallMatrix(4, tuple(bad_psd.ravel())))
    lop = np.diag([0.5, 0.5, 0.0, 0.0])
    lop[0, 1] = 0.3
    with pytest.raises(NotDensityMatrixError):
        concurrence_two_qubit(SmallMatrix(4, tuple(lop.ravel())))


def test_one_vs_rest_values():
    p = DickeParams(4, 2, 0.5)
    assert one_vs_rest(SingleQubitMarginal(p, SmallMatrix(2, (0.5, 0.0, 0.0, 0.5)))) == 1.0
    got = one_vs_rest(SingleQubitMarginal(p, SmallMatrix(2, (2 / 3, 0.0, 0.0, 1 / 3))))
    assert got == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-15)
    assert one_vs_rest(SingleQubitMarginal(p, SmallMatrix(2, (1.0, 0.0, 0.0, 0.0)))) == 0.0


def test_one_vs_rest_is_the_one_row_view_of_the_c1_stage():
    for n in (2, 3, 7, 12, 100, 1000):
        for k in sorted({1, min(2, n // 2), max(1, n // 4), n // 2}):
            for a in [i / 20 for i in range(21)] + [1e-300, 1.0 - 1e-9]:
                p = DickeParams(n, k, a)
                got = one_vs_rest(single_qubit_marginal(two_qubit_marginal(p)))
                assert got == math.sqrt(tangle_record(p).c1_sq), (n, k, a)


def test_negativity_of_bell_marginal_is_maximal():
    m = two_qubit_marginal(DickeParams(2, 1, 0.0))
    assert negativity_two_qubit(m) == pytest.approx(1.0, abs=1e-12)


def test_negativity_of_w_marginal():
    m = two_qubit_marginal(DickeParams(3, 1, 0.0))
    assert negativity_two_qubit(m) == pytest.approx((math.sqrt(5) - 1) / 3, abs=1e-12)


def test_negativity_of_product_marginal_is_zero():
    assert negativity_two_qubit(two_qubit_marginal(DickeParams(6, 3, 1.0))) == 0.0


def test_negativity_matches_numpy_spectrum():
    rng = np.random.default_rng(31)
    for n in rng.integers(2, 13, size=40):
        n = int(n)
        k = int(rng.integers(1, n // 2 + 1))
        a = float(rng.uniform(0.0, 1.0))
        m = two_qubit_marginal(DickeParams(n, k, a))
        arr = marginal_matrix(m).to_array()
        vals = np.linalg.eigvalsh(arr.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4))
        want = float(np.abs(vals).sum()) - 1.0
        assert negativity_two_qubit(m) == pytest.approx(max(0.0, want), abs=1e-13)


def test_negativity_aborts_on_garbage_marginal():
    # unit trace but wildly unphysical coherences: the [0, 1] guard must trip
    m = TwoQubitMarginal(DickeParams(4, 2, 0.5), 0.0, 0.0, 5.0, 0.25, 5.0, 0.5)
    with pytest.raises(NumericalInstabilityError):
        negativity_two_qubit(m)


def test_tangle_record_w_state():
    rec = tangle_record(DickeParams(3, 1, 0.0))
    assert rec.c1_sq == pytest.approx(8 / 9, abs=1e-12)
    assert rec.c2_sq == pytest.approx(4 / 9, abs=1e-12)
    assert rec.tau == pytest.approx(0.0, abs=1e-12)
    assert rec.n2 == pytest.approx((math.sqrt(5) - 1) / 3, abs=1e-12)
    assert rec.xi == pytest.approx((4 * math.sqrt(5) - 4) / 9, abs=1e-12)


def test_tangle_record_half_filled_four_qubits():
    rec = tangle_record(DickeParams(4, 2, 0.0))
    assert rec.c1_sq == pytest.approx(1.0, abs=1e-12)
    assert rec.c2_sq == pytest.approx(1 / 9, abs=1e-12)
    assert rec.tau == pytest.approx(2 / 3, abs=1e-12)
    assert rec.n2 == pytest.approx(1 / 3, abs=1e-12)
    assert rec.xi == pytest.approx(2 / 3, abs=1e-12)


def test_tangle_record_product_point_is_exactly_zero():
    rec = tangle_record(DickeParams(7, 3, 1.0))
    assert (rec.c1_sq, rec.c2_sq, rec.tau, rec.n2, rec.xi) == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_tau_rises_when_leaving_the_half_filled_point():
    """tau is not monotone in N at fixed k: N = 2k -> 2k + 1 increases it."""
    low = tangle_record(DickeParams(4, 2, 0.0)).tau
    high = tangle_record(DickeParams(5, 2, 0.0)).tau
    assert low == pytest.approx(2 / 3, abs=1e-12)
    assert high == pytest.approx(9.6 * math.sqrt(0.03) - 0.96, abs=1e-12)
    assert high > low + 0.036


def test_monogamy_and_ordering_on_small_grid():
    for n in range(2, 9):
        for k in range(1, n // 2 + 1):
            for a in np.linspace(0.0, 1.0, 11):
                rec = tangle_record(DickeParams(n, k, float(a)))
                assert rec.tau >= -1e-10, rec
                assert rec.xi >= -1e-10, rec
                assert rec.xi >= rec.tau - 1e-10, rec
                if k == 1:
                    assert abs(rec.tau) <= 1e-9, rec


def test_tangle_record_validation():
    p = DickeParams(3, 1, 0.5)
    with pytest.raises(InvalidParamsError):
        TangleRecord(p, c1_sq=0.5, c2_sq=0.1, tau=0.5, n2=0.1, xi=0.48)
    with pytest.raises(InvalidParamsError):
        TangleRecord(p, c1_sq=1.5, c2_sq=0.0, tau=1.5, n2=0.0, xi=1.5)
    TangleRecord(p, c1_sq=0.5, c2_sq=0.1, tau=0.3, n2=0.2, xi=0.42)


@pytest.mark.parametrize(
    "n,k", [(2, 1), (5, 2), (13, 6), (64, 3), (100, 50), (1000, 3), (1000, 500)]
)
def test_tangle_table_rows_equal_tangle_record(n, k):
    grid = [i / 40 for i in range(41)] + [1e-300, 0.123456789, 1.0 - 1e-9]
    table = tangle_table(n, k, grid)
    for i, a in enumerate(grid):
        rec = tangle_record(DickeParams(n, k, a))
        assert (rec.c1_sq, rec.c2_sq, rec.tau, rec.n2, rec.xi) == tuple(
            float(col[i]) for col in table
        ), (n, k, a)


def test_triplet_concurrence_matches_four_by_four_route():
    # the engine's 3x3 triplet block against the public 4x4 |eig(rho Y)| route
    rng = np.random.default_rng(5)
    for n in (3, 7, 12, 40):
        for k in range(1, n // 2 + 1, max(1, n // 10)):
            grid = rng.uniform(0.0, 1.0, size=5)
            table = tangle_table(n, k, grid)
            for a, c2_sq in zip(grid, table.c2_sq):
                rho = marginal_matrix(two_qubit_marginal(DickeParams(n, k, float(a))))
                assert math.sqrt(c2_sq) == pytest.approx(concurrence_two_qubit(rho), abs=1e-13)


def test_xi_not_below_tau_where_negativity_equals_concurrence():
    # N2 = C2 here, so the 50-digit reference has tau = xi; xi must not fall below tau
    rec = tangle_record(DickeParams(1000, 500, 0.9))
    assert rec.xi - rec.tau >= -1e-12


def test_tiny_tau_keeps_its_sign_at_large_n():
    # 50-digit reference: tau(1000, 3, 0.99) = 1.1977510583890642e-15
    rec = tangle_record(DickeParams(1000, 3, 0.99))
    assert rec.tau > 0.0
    assert rec.tau == pytest.approx(1.1977510583890642e-15, rel=1e-6)


def test_small_concurrence_keeps_relative_accuracy():
    # 50-digit reference: c2_sq(100, 2, 0.76) = 7.9165869869084818586e-8
    rec = tangle_record(DickeParams(100, 2, 0.76))
    assert rec.c2_sq == pytest.approx(7.9165869869084818586e-8, rel=1e-10)


@pytest.mark.parametrize(
    "n,k,a",
    [
        (1, 1, 0.5),
        (4, 0, 0.5),
        (4, 3, 0.5),
        (4, 2, 1.5),
        (4, 2, -0.1),
        (4, 2, math.nan),
        (4.5, 2, 0.5),
        (None, 3, 0.4),
        (math.inf, 3, 0.4),
        (math.nan, 3, 0.4),
        ("x", 3, 0.4),
        (10, 3, "x"),
        (10, 3, None),
        (10, 3, np.complex128(0.3 + 0.5j)),
        (10, 3, 0.3 + 0j),
    ],
)
def test_out_of_range_input_raises_the_same_error_through_both_apis(n, k, a):
    with pytest.raises(InvalidParamsError) as scalar:
        tangle_record(DickeParams(n, k, a))
    with pytest.raises(InvalidParamsError) as table:
        tangle_table(n, k, [0.25, a])
    assert str(table.value) == str(scalar.value)
    if a is None:
        assert str(scalar.value).endswith("got None")


def test_tangle_table_rejects_a_grid_of_more_than_one_dimension():
    with pytest.raises(InvalidParamsError, match=r"shape \(2, 2\)"):
        tangle_table(10, 3, [[0.1, 0.2], [0.3, 0.4]])
    scalar = tangle_table(10, 3, 0.3)
    row = tangle_table(10, 3, [0.3])
    assert [col.tolist() for col in scalar] == [col.tolist() for col in row]


def test_engine_aborts_keep_their_types():
    # spectra a physical marginal cannot produce: the aborts must fire, not clip
    with pytest.raises(NumericalInstabilityError):
        measures._wootters(np.array([[0.5 + 0.1j, 0.5 - 0.1j, 0.0]]))  # complex rho rho~ spectrum
    with pytest.raises(NumericalInstabilityError):
        measures._wootters(np.array([[1e-3j, -1e-3j, 0.1]]))  # negative rho rho~ eigenvalue
    with pytest.raises(NumericalInstabilityError):
        measures._wootters(np.array([[1.5, 0.1, 0.1]]))  # concurrence 1.3
    with pytest.raises(NumericalInstabilityError):
        measures._wootters(np.array([[np.nan, 0.1, 0.1]]))
    not_psd = np.diag([1.2, -0.2, 0.0])[None]
    with pytest.raises(NotDensityMatrixError):
        measures._triplet_concurrence(not_psd)
    with pytest.raises(NotDensityMatrixError):
        measures._c1_squared(np.array([0.1, -1e-9]))  # det rho_1 < 0
    for det in (0.26, np.nan):  # C1 = 2 sqrt(0.26) ~ 1.02, and nan
        with pytest.raises(NumericalInstabilityError):
            measures._c1_squared(np.array([0.1, det]))


def test_psd_abort_reads_the_same_through_both_routes():
    with pytest.raises(NotDensityMatrixError) as four:
        concurrence_two_qubit(SmallMatrix(4, tuple(np.diag([1.2, -0.2, 0.0, 0.0]).ravel())))
    with pytest.raises(NotDensityMatrixError) as three:
        measures._triplet_concurrence(np.diag([1.2, -0.2, 0.0])[None])
    assert "np.float64(" not in str(four.value)
    assert str(four.value) == str(three.value)
