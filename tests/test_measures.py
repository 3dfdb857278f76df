import math
import tracemalloc

import numpy as np
import pytest

from dicketangle import marginals, measures, oracle
from dicketangle.cli import _a_grid, main
from dicketangle.dicke import DickeParams, amplitude_rows
from dicketangle.errors import (
    InvalidParamsError,
    NotDensityMatrixError,
    NumericalInstabilityError,
)
from dicketangle.marginals import (
    SingleQubitMarginal,
    TwoQubitMarginal,
    marginal_elements,
    marginal_matrix,
    single_qubit_marginal,
    triplet_blocks,
    two_qubit_marginal,
)
from dicketangle.measures import (
    TangleRecord,
    concurrence_two_qubit,
    negativity_two_qubit,
    one_vs_rest,
    tangle_grid,
    tangle_record,
    tangle_table,
)
from dicketangle.smallmat import SmallMatrix

from test_dicke import _scalar_points
from test_engine_arithmetic import _same_bits
from test_marginals import _fails_to_converge


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


def test_concurrence_of_dense_marginals_equals_the_matrix_product_route():
    # every (N, k) with N <= 12 at 21 values of a: the row flip must give the bits of
    # eigvalsh(G^T (sigma_y x sigma_y) G), with G = V sqrt(W) from eigh(rho) = (W, V)
    y4 = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]]).real
    for n in range(2, 13):
        for k in range(1, n // 2 + 1):
            for a in [i / 20 for i in range(21)]:
                rho = oracle.partial_trace_to_two(oracle.expand_state(DickeParams(n, k, a)))
                w, v = np.linalg.eigh(rho.to_array())
                g = v * np.sqrt(np.maximum(w, 0.0))
                want = measures._wootters(np.linalg.eigvalsh(g.T @ (y4 @ g)))
                assert concurrence_two_qubit(rho) == float(want), (n, k, a)


# the four real Bell states Phi+, Phi-, Psi+ and the singlet Psi-, one a row
_BELL_STATES = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2)


@pytest.mark.parametrize(
    "corner",
    [None, (1, 0, 0, 0), (0.5, 0.5, 0, 0), (1 / 3, 1 / 3, 1 / 3, 0)],
    ids=["seeded", "pure", "two", "three"],
)
def test_concurrence_of_bell_diagonal_states_is_two_lambda_max_minus_one(corner):
    """rho = sum_i lambda_i |B_i><B_i| has C = max(0, 2 lambda_max - 1). These states have
    singlet weight, which no Dicke-class marginal has, so only the dense route meets them.
    Each corner puts its weights on every Bell state in turn, the singlet included."""
    if corner is None:
        lam = np.random.default_rng(34).dirichlet(np.ones(4), size=200)
    else:
        lam = np.array([np.roll(corner, shift) for shift in range(4)], dtype=float)
    rhos = (_BELL_STATES.T * lam[:, None, :]) @ _BELL_STATES
    want = np.maximum(0.0, 2.0 * lam.max(axis=1) - 1.0)
    assert np.abs(measures.concurrence_stack(rhos) - want).max() <= 1e-14
    for rho, c in zip(rhos, want):
        assert abs(concurrence_two_qubit(SmallMatrix(4, rho.ravel())) - c) <= 1e-14


def test_no_entry_point_reaches_a_nonsymmetric_eigensolver(monkeypatch):
    # every spectrum is read from a real symmetric matrix: eigvalsh, or eigh for the dense
    # 4x4 route's factor, and never the general eigvals or eig
    def nonsymmetric(*args, **kwargs):
        raise AssertionError("a nonsymmetric eigensolver was called")

    for name in ("eigvals", "eig"):
        monkeypatch.setattr(marginals._umath_linalg, name, nonsymmetric)
    params = DickeParams(5, 2, 0.3)
    tangle_record(params)
    tangle_grid([(5, 2), (12, 6)], [0.0, 0.5, 1.0])
    m = two_qubit_marginal(params)
    rho = marginal_matrix(m)
    concurrence_two_qubit(rho)
    negativity_two_qubit(m)
    one_vs_rest(single_qubit_marginal(m))
    TwoQubitMarginal(None, m.A, m.B, m.C, m.D, m.E, m.F)
    SingleQubitMarginal(None, SmallMatrix(2, (0.5, 0.25, 0.25, 0.5)))
    assert main(["oracle", "--n-max", "4", "--a-steps", "3"]) == 0


def test_eigensolver_failure_raises_no_convergence(monkeypatch):
    # the engine's one eigensolve is eigvalsh of [H, P]; the 4x4 route starts with eigh
    rho = marginal_matrix(two_qubit_marginal(DickeParams(5, 2, 0.3)))
    with monkeypatch.context() as patch:
        patch.setattr(marginals._umath_linalg, "eigvalsh_lo", _fails_to_converge)
        with pytest.raises(NumericalInstabilityError, match="did not converge"):
            tangle_record(DickeParams(5, 2, 0.3))
    monkeypatch.setattr(marginals._umath_linalg, "eigh_lo", _fails_to_converge)
    with pytest.raises(NumericalInstabilityError, match="did not converge"):
        concurrence_two_qubit(rho)
    assert tangle_record(DickeParams(5, 2, 0.3)).c2_sq > 0.0


def test_concurrence_stack_factors_each_matrix_once(monkeypatch):
    # the PSD test reads the eigenvalues of the one eigh that _concurrence factors rho with;
    # the other eigensolve is the eigvalsh of M
    lapack = marginals._umath_linalg
    calls = []

    def counted(name):
        solve = getattr(lapack, name)

        def count(mats, signature):
            calls.append((name, mats.shape))
            return solve(mats, signature=signature)
        return count

    rhos = np.array([marginal_matrix(two_qubit_marginal(DickeParams(6, k, 0.4))).to_array()
                     for k in (1, 2, 3)])
    want = measures.concurrence_stack(rhos)
    for name in ("eigh_lo", "eigvalsh_lo"):
        monkeypatch.setattr(lapack, name, counted(name))
    assert measures.concurrence_stack(rhos).tobytes() == want.tobytes()
    assert calls == [("eigh_lo", (3, 4, 4)), ("eigvalsh_lo", (3, 4, 4))]
    bad_psd = np.diag([1.5, -0.5, 0.0, 0.0])
    with pytest.raises(NotDensityMatrixError, match="got smallest eigenvalue -0.5$"):
        measures.concurrence_stack([rhos[0], bad_psd])


def test_concurrence_input_checks():
    with pytest.raises(InvalidParamsError):
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


def test_concurrence_two_qubit_is_the_one_row_view_of_concurrence_stack():
    rhos = [
        oracle.partial_trace_to_two(oracle.expand_state(DickeParams(n, k, a)))
        for n, k in ((2, 1), (5, 2), (12, 6)) for a in (0.0, 0.3, 0.7, 1.0)
    ]
    stack = measures.concurrence_stack(np.array([rho.to_array() for rho in rhos]))
    for i, rho in enumerate(rhos):
        assert concurrence_two_qubit(rho) == measures.concurrence_stack(rho.to_array()[None])[0]
        assert concurrence_two_qubit(rho) == stack[i]


_README_PAIRS = [(n, k) for n in (10, 100) for k in range(1, n // 2 + 1)]
_LARGE_N_PAIRS = [(n, k) for n in (1000, 2000) for k in (1, 2, 3, 4, 5, *range(25, 501, 25))]


@pytest.mark.parametrize(
    "pairs, grid",
    [
        (_README_PAIRS, _a_grid(0.0, 1.0, 101)),
        (_LARGE_N_PAIRS, _a_grid(0.0, 1.0, 21)),
        # N = 2 near a = 1e-160, where the first pivot A = a^2 passes through the subnormals
        ([(2, 1)], 10.0 ** -np.arange(150.0, 165.0, 0.25)),
    ],
    ids=["readme", "large-n-sweep", "subnormal-pivot"],
)
def test_engine_concurrence_matches_the_dense_4x4_route(pairs, grid):
    """The engine's C2 (eigvalsh of the symmetric H of triplet_blocks) against
    concurrence_stack of the same marginals assembled as 4x4s (eigvalsh of G^T Y G, with G
    from eigh of rho, not a Cholesky factor of R): two routes that share only _wootters."""
    table = tangle_grid(pairs, grid)
    per_pair = [marginal_elements(n, amplitude_rows(n, k, grid)) for n, k in pairs]
    A, B, C, D, E, F = (np.concatenate(col) for col in zip(*per_pair))
    rhos = np.array([A, B, B, C, B, D, D, E, B, D, D, E, C, E, E, F]).T.reshape(-1, 4, 4)
    gap = np.abs(np.sqrt(table.c2_sq) - measures.concurrence_stack(rhos))
    assert len(gap) == len(pairs) * len(grid)
    assert gap.max() <= 4e-15


def _asymmetric():
    rho = np.diag([0.5, 0.5, 0.0, 0.0])
    rho[0, 1] = 0.3
    return rho


@pytest.mark.parametrize("bad", [
    np.diag([0.6, 0.3, 0.1, 0.1]),  # trace 1.1
    _asymmetric(),
    np.diag([1.2, -0.2, 0.0, 0.0]),  # not PSD
])
def test_concurrence_stack_names_its_bad_row_as_the_scalar_call_does(bad):
    good = marginal_matrix(two_qubit_marginal(DickeParams(6, 3, 0.4))).to_array()
    with pytest.raises(NotDensityMatrixError) as scalar:
        concurrence_two_qubit(SmallMatrix(4, tuple(bad.ravel())))
    with pytest.raises(NotDensityMatrixError) as stacked:
        measures.concurrence_stack(np.array([good, good, bad, good]))
    assert str(stacked.value) == str(scalar.value)


def test_concurrence_stack_refuses_a_stack_of_another_shape():
    for rhos in (np.eye(4) / 4, np.zeros((2, 3, 3)), [[["x"] * 4] * 4]):
        with pytest.raises(InvalidParamsError):
            measures.concurrence_stack(rhos)
    with pytest.raises(InvalidParamsError, match="finite"):
        measures.concurrence_stack(np.full((1, 4, 4), np.nan))


def test_one_vs_rest_values():
    p = DickeParams(4, 2, 0.5)
    assert one_vs_rest(SingleQubitMarginal(p, SmallMatrix(2, (0.5, 0.0, 0.0, 0.5)))) == 1.0
    got = one_vs_rest(SingleQubitMarginal(p, SmallMatrix(2, (2 / 3, 0.0, 0.0, 1 / 3))))
    assert got == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-15)
    assert one_vs_rest(SingleQubitMarginal(p, SmallMatrix(2, (1.0, 0.0, 0.0, 0.0)))) == 0.0


def test_one_vs_rest_runs_the_density_rule_only_on_a_stack(monkeypatch):
    # a SingleQubitMarginal passed the rule when it was built; one_vs_rest_stack takes raw arrays
    rho1 = SingleQubitMarginal(None, SmallMatrix(2, (2 / 3, 0.1, 0.1, 1 / 3)))
    calls = []
    orig = marginals.density_stack

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(marginals, "density_stack", counted)
    monkeypatch.setattr(measures, "density_stack", counted)
    got = one_vs_rest(rho1)
    assert calls == []
    assert measures.one_vs_rest_stack(rho1.rho.to_array()[None]).tolist() == [got]
    assert len(calls) == 1


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
    # unit trace but wildly unphysical coherences: the constructor refuses them (the 4x4 has
    # eigenvalue -8.25), and on their blocks the [0, 1] guard must trip
    elements = (0.0, 0.0, 5.0, 0.25, 5.0, 0.5)
    with pytest.raises(NotDensityMatrixError, match="positive semidefinite"):
        TwoQubitMarginal(DickeParams(4, 2, 0.5), *elements)
    _, blocks, singlet, _ = triplet_blocks(*np.array(elements)[:, None])
    with pytest.raises(NumericalInstabilityError, match="doubled negativity left"):
        measures._negativity(measures._eig(blocks[:, 1]), singlet)


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
    with pytest.raises(InvalidParamsError, match="xi is inconsistent with c1_sq and n2"):
        TangleRecord(p, c1_sq=0.5, c2_sq=0.1, tau=0.3, n2=0.2, xi=0.5)
    TangleRecord(p, c1_sq=0.5, c2_sq=0.1, tau=0.3, n2=0.2, xi=0.42)


def test_tangle_record_is_a_checked_record(monkeypatch):
    # tangle_record builds its record without TangleRecord's checks; on the README grid and
    # the scalar-points inputs each record equals, bit for bit, the checked record of its
    # fields, so the [0, 1] ranges and both 1e-12 consistency relations hold there
    grid = _a_grid(0.0, 1.0, 101)
    readme = [(n, k, a) for n in (10, 100) for k in range(1, n // 2 + 1) for a in grid]
    checks = []
    orig = TangleRecord.__post_init__

    def counted(self):
        checks.append(self)
        orig(self)

    monkeypatch.setattr(TangleRecord, "__post_init__", counted)
    records = [tangle_record(DickeParams(*point)) for point in readme + _scalar_points()]
    assert checks == []
    for rec in records:
        checked = TangleRecord(rec.params, rec.c1_sq, rec.c2_sq, rec.tau, rec.n2, rec.xi)
        fields = [(r.c1_sq, r.c2_sq, r.tau, r.n2, r.xi) for r in (rec, checked)]
        assert all(type(x) is float for x in fields[0]), rec
        _same_bits(np.array(fields[0]), np.array(fields[1]))
    assert len(checks) == len(records) == 5555 + 2048


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


def test_tangle_grid_rows_equal_each_pairs_table_and_records():
    # mixed N and k in one call: k = 1, k = N//2, N = 10^6, and both endpoints of a
    pairs = [(2, 1), (1000, 3), (13, 6), (10**6, 1), (100, 50), (10**6, 3), (5, 2), (64, 1)]
    grid = [0.0, 1e-300, 0.05, 0.3, 0.5, 0.77, 0.99, 1.0 - 1e-9, 1.0]
    got = tangle_grid(pairs, grid)
    assert all(col.shape == (len(pairs) * len(grid),) for col in got)
    for i, (n, k) in enumerate(pairs):
        rows = slice(i * len(grid), (i + 1) * len(grid))
        table = tangle_table(n, k, grid)
        for name, col, want in zip(got._fields, got, table):
            assert col[rows].tolist() == want.tolist(), (n, k, name)
        for j, a in enumerate(grid):
            rec = tangle_record(DickeParams(n, k, a))
            want = (rec.c1_sq, rec.c2_sq, rec.tau, rec.n2, rec.xi)
            assert tuple(col[i * len(grid) + j].item() for col in got) == want, (n, k, a)


def test_tangle_grid_validates_its_pairs():
    # a set has no pairs[i] for the pair-major rows to follow
    for pairs in ([], 5, [4], [(4,)], [(4, 1, 2)], "ab", {(10, 3), (4, 1), (7, 2)},
                  frozenset({(4, 1)})):
        with pytest.raises(InvalidParamsError, match="pair"):
            tangle_grid(pairs, [0.5])
    expected = tangle_grid([(10, 3), (4, 1)], [0.5])
    for pairs in (((10, 3), (4, 1)), np.array([[10, 3], [4, 1]]), (p for p in [(10, 3), (4, 1)])):
        assert all(map(np.array_equal, tangle_grid(pairs, [0.5]), expected))
    # an invalid pair anywhere raises what tangle_table raises for it
    for n, k, a in (
        (4, 3, 0.5), (1, 1, 0.5), (4.5, 2, 0.5), (10, 3, 1.5),
        (10**5000, 1, 0.5), (10, 10**5000, 0.5),
    ):
        with pytest.raises(InvalidParamsError) as one:
            tangle_table(n, k, [a])
        with pytest.raises(InvalidParamsError) as many:
            tangle_grid([(10, 3), (n, k)], [0.25, a])
        assert str(many.value) == str(one.value)


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


# tau = C1^2 - (N-1) C2^2 cancels with kappa = C1^2 / tau ~ N / (2(k-1)t), t = (1 - a^2)/a^2,
# and kappa times the rounding of the float C1^2 and Clebsch-Gordan coefficients outgrows tau
_CANCELLATION = pytest.mark.xfail(
    strict=True, reason="the large-N cancellation in tau = C1^2 - (N-1) C2^2 (ROADMAP item 1)"
)


@_CANCELLATION
@pytest.mark.parametrize("n,k,a", [(1000, 3, 0.999999), (10**9, 2, 0.9), (10**12, 2, 0.5)])
def test_large_n_tangles_are_positive(n, k, a):
    rec = tangle_record(DickeParams(n, k, a))
    assert rec.tau > 0.0 and rec.xi > 0.0


@_CANCELLATION
def test_large_n_tau_is_positive_where_xi_is():
    assert tangle_record(DickeParams(10**9, 2, 0.5)).tau > 0.0


@_CANCELLATION
def test_large_n_xi_keeps_relative_accuracy():
    # 50-digit reference: python3 bench/compare.py 1000,3,0.99
    rec = tangle_record(DickeParams(1000, 3, 0.99))
    assert rec.xi == pytest.approx(2.3845923842817616423e-15, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("n", [10**3, 10**4])
@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_large_n_tangles_follow_their_leading_term(n, k):
    # with t = (1 - a^2)/a^2, tau -> 8k^2(k-1)t^3/N^4 and xi -> 8k^2(k+1)t^3/N^4, so an even
    # spread of the two spinors (larger k) carries more residual entanglement; the next term
    # is O(k(1 + t)/N) relative. Above N ~ 1e5 the C1^2 cancellation outgrows this bound.
    for a, tau, xi in zip((0.5, 0.9), *tangle_table(n, k, [0.5, 0.9])[2::2]):
        t = (1.0 - a) * (1.0 + a) / (a * a)
        rel = (6 * k + 16 * k * t) / n
        assert xi == pytest.approx(8 * k * k * (k + 1) * t**3 / n**4, rel=rel, abs=0.0)
        if k >= 2:
            assert tau == pytest.approx(8 * k * k * (k - 1) * t**3 / n**4, rel=rel, abs=0.0)


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
        # above 2**53, N - r is not exact in float
        pytest.param(2**53 + 1, 1, 0.5, id="n-2**53+1"),
        pytest.param(10**400, 1, 0.5, id="n-10**400"),
        # more digits than str() converts: the message gives the bit length
        pytest.param(10**5000, 1, 0.5, id="n-10**5000"),
        pytest.param(-(10**5000), 1, 0.5, id="n--10**5000"),
        pytest.param(10, 10**5000, 0.5, id="k-10**5000"),
        (None, 3, 0.4),
        (math.inf, 3, 0.4),
        (math.nan, 3, 0.4),
        ("x", 3, 0.4),
        (10, 3, "x"),
        (10, 3, None),
        (10, 3, np.complex128(0.3 + 0.5j)),
        (10, 3, 0.3 + 0j),
        pytest.param(10, 3, 10**400, id="a-10**400"),
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


def test_tangle_table_memory_does_not_grow_with_n():
    # a call at degeneracy k needs O(k) logs and coefficients, not tables over 0..N;
    # no other test uses this N, so nothing built for it earlier can hide the cost
    tracemalloc.start()
    try:
        tangle_table(10**6 + 3, 3, [0.0, 0.5, 1.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_tangle_table_rejects_a_grid_of_more_than_one_dimension():
    with pytest.raises(InvalidParamsError, match=r"shape \(2, 2\)"):
        tangle_table(10, 3, [[0.1, 0.2], [0.3, 0.4]])
    scalar = tangle_table(10, 3, 0.3)
    row = tangle_table(10, 3, [0.3])
    assert [col.tolist() for col in scalar] == [col.tolist() for col in row]


def test_engine_aborts_keep_their_types():
    # spectra a physical marginal cannot produce: the aborts must fire, not clip
    with pytest.raises(NumericalInstabilityError):
        measures._wootters(np.array([[1.5, 0.1, 0.1]]))  # concurrence 1.3
    with pytest.raises(NumericalInstabilityError):
        measures._wootters(np.array([[np.nan, 0.1, 0.1]]))


def test_psd_abort_reads_the_same_through_both_routes():
    with pytest.raises(NotDensityMatrixError) as four:
        concurrence_two_qubit(SmallMatrix(4, tuple(np.diag([1.2, -0.2, 0.0, 0.0]).ravel())))
    assert "np.float64(" not in str(four.value)
    assert str(four.value) == (
        "two-qubit density matrix must be positive semidefinite, got smallest eigenvalue -0.2"
    )


def test_concurrence_cubic_meets_the_negativity_block_on_the_readme_grid():
    """C2 reads the eigenvalues mu of H, similar to R Y3: the roots of
    p(mu) = mu^3 - e1 mu^2 + e2 mu - e3
    with e1 = 2(D - C), e2 = C^2 - AF - 4CD + 4BE and e3 = -2(ADF - AE^2 - B^2 F + 2BCE - C^2 D);
    N2 reads the eigenvalues of the partial-transpose block P. Symbolically p(e1/2) = det P.
    This holds both on every engine row of the README sweep (N = 10, 100, every k, 101 a)."""
    grid = _a_grid(0.0, 1.0, 101)
    pairs = [(n, k) for n in (10, 100) for k in range(1, n // 2 + 1)]
    columns = zip(*(marginal_elements(n, amplitude_rows(n, k, grid)) for n, k in pairs))
    A, B, C, D, E, F = elements = [np.concatenate(col) for col in columns]
    assert len(A) == 5555
    e1 = 2.0 * (D - C)
    e2 = C * C - A * F - 4.0 * C * D + 4.0 * B * E
    e3 = -2.0 * (A * D * F - A * E * E - B * B * F + 2.0 * B * C * E - C * C * D)
    # the engine's one eigensolve: row 0 is the spectrum of H, similar to R Y3; row 1 that of P
    spectra = measures._eig(triplet_blocks(*elements)[1])
    m0, m1, m2 = spectra[:, 0, 0], spectra[:, 0, 1], spectra[:, 0, 2]
    assert np.abs(m0 + m1 + m2 - e1).max() <= 1e-14
    assert np.abs(m0 * m1 + m0 * m2 + m1 * m2 - e2).max() <= 1e-14
    assert np.abs(m0 * m1 * m2 - e3).max() <= 1e-14
    h = 0.5 * e1
    det_p = spectra[:, 1].prod(axis=1)
    assert np.abs(((h - e1) * h + e2) * h - e3 - det_p).max() <= 1e-14
