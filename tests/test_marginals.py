import decimal
import math
import warnings

import numpy as np
import pytest

from dicketangle import marginals, measures
from dicketangle.cli import _a_grid
from dicketangle.dicke import DickeParams, amplitude_rows
from dicketangle.errors import (
    DicketangleError,
    InvalidParamsError,
    NotDensityMatrixError,
    NumericalInstabilityError,
)
from dicketangle.marginals import (
    SingleQubitMarginal,
    TwoQubitMarginal,
    density_stack,
    marginal_elements,
    marginal_matrix,
    single_qubit_marginal,
    triplet_blocks,
    two_qubit_marginal,
)
from dicketangle.measures import concurrence_two_qubit
from dicketangle.oracle import expand_state, partial_trace_to_one, partial_trace_to_two
from dicketangle.smallmat import SmallMatrix

from test_dicke import _amplitude_squares, _cg_squares, _scalar_points
from test_engine_arithmetic import _same_bits


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
    blocks, singlet, _ = triplet_blocks(*(np.array([x]) for x in (m.A, m.B, m.C, m.D, m.E, m.F)))
    return blocks[0, 1], singlet[0]


def test_partial_transpose_of_half_filled_point():
    P, singlet = _blocks(two_qubit_marginal(DickeParams(4, 2, 0.0)))
    want = [
        [1 / 6, 0.0, 1 / 3],
        [0.0, 1 / 3, 0.0],
        [1 / 3, 0.0, 1 / 6],
    ]
    assert np.allclose(P, want, atol=1e-15, rtol=0.0)
    assert singlet == pytest.approx(1 / 3, abs=1e-15)


def test_partial_transpose_matches_axis_swap():
    """P and D - C agree with the triplet and singlet projections of rho's axis swap."""
    for params in _grid_params(n_max=8, a_steps=5):
        m = two_qubit_marginal(params)
        P, singlet = _blocks(m)
        arr = marginal_matrix(m).to_array()
        swapped = arr.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
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
    with pytest.raises(NotDensityMatrixError):
        TwoQubitMarginal(p, 0.4, 0.0, 0.0, 0.2, 0.0, 0.3)  # trace 1.1
    with pytest.raises(NotDensityMatrixError):
        TwoQubitMarginal(p, -0.2, 0.0, 0.0, 0.5, 0.0, 0.2)
    with pytest.raises(InvalidParamsError):
        TwoQubitMarginal(p, math.nan, 0.0, 0.0, 0.3, 0.0, 0.4)


def test_two_qubit_marginal_runs_the_density_rule_only_on_a_marginal_from_outside(monkeypatch):
    # two_qubit_marginal builds its marginal from the engine's A..F without the rule, and
    # bit for bit as the checked TwoQubitMarginal of those A..F; one from outside still runs it
    calls = []

    def counted(*args):
        calls.append(args)
        return density_stack(*args)

    monkeypatch.setattr(marginals, "density_stack", counted)
    params = [DickeParams(*point) for point in _scalar_points()]
    built = [two_qubit_marginal(p) for p in params]
    assert calls == []
    for p, got in zip(params, built):
        row = marginal_elements(p.n_qubits, amplitude_rows(p.n_qubits, p.degeneracy, [p.a]))
        checked = TwoQubitMarginal(p, *(float(col[0]) for col in row))
        fields = [(m.A, m.B, m.C, m.D, m.E, m.F) for m in (got, checked)]
        assert got.params is p and all(type(x) is float for x in fields[0])
        _same_bits(np.array(fields[0]), np.array(fields[1]))
    assert len(calls) == 2048
    with pytest.raises(NotDensityMatrixError, match="positive semidefinite"):
        TwoQubitMarginal(None, 0.5, 0.4, 0.0, 0.0, 0.0, 0.5)
    assert len(calls) == 2049


def test_two_qubit_marginal_with_huge_finite_entries_is_not_called_non_finite():
    # every entry of the 4x4 is finite, though sqrt(2) B would overflow in R; eigvalsh gives
    # a smallest eigenvalue of -inf here, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotDensityMatrixError) as raised:
            TwoQubitMarginal(None, 0.5, 1.5e308, 0.0, 0.0, 0.0, 0.5)
    assert str(raised.value).startswith(
        "two-qubit marginal must be positive semidefinite, got smallest eigenvalue -"
    )


def test_two_qubit_marginal_refuses_what_is_not_psd(monkeypatch):
    # nonnegative diagonal and unit trace, but R = [[0.5, 0.4 sqrt 2, 0], [0.4 sqrt 2, 0, 0],
    # [0, 0, 0.5]] has eigenvalue 0.25 - sqrt(0.3825); concurrence_two_qubit refuses its 4x4 too
    with pytest.raises(NotDensityMatrixError, match=r"smallest eigenvalue -0\.368"):
        TwoQubitMarginal(None, 0.5, 0.4, 0.0, 0.0, 0.0, 0.5)
    dense = SmallMatrix(4, (0.5, 0.4, 0.4, 0, 0.4, 0, 0, 0, 0.4, 0, 0, 0, 0, 0, 0, 0.5))
    with pytest.raises(NotDensityMatrixError, match=r"smallest eigenvalue -0\.368"):
        concurrence_two_qubit(dense)
    # the Bell state |Phi+> is pure: R has the double eigenvalue 0, on the boundary
    assert TwoQubitMarginal(None, 0.5, 0.0, 0.5, 0.0, 0.0, 0.5).C == 0.5

    monkeypatch.setattr(marginals._umath_linalg, "eigvalsh_lo", _fails_to_converge)
    with pytest.raises(NumericalInstabilityError, match="did not converge"):
        TwoQubitMarginal(None, 0.5, 0.0, 0.5, 0.0, 0.0, 0.5)


def _fails_to_converge(mats, signature):
    """A stand-in for the eigensolver gufuncs that fails as LAPACK does in them: it raises
    the floating-point invalid flag (0/0)."""
    return np.zeros(mats.shape[:-1]) / 0.0


def test_eig_is_numpys_eigensolver():
    # every engine block of the README sweep (N = 10 and 100, every k, 101 a), read as the
    # engine reads them: the ascending eigenvalues of H (C2) and of P (N2) in one stack; and
    # the eigenpairs of the same marginals' 4x4s, as concurrence_stack reads them
    grid = _a_grid(0.0, 1.0, 101)
    pairs = [(n, k) for n in (10, 100) for k in range(1, n // 2 + 1)]
    columns = zip(*(marginal_elements(n, amplitude_rows(n, k, grid)) for n, k in pairs))
    A, B, C, D, E, F = elements = [np.concatenate(col) for col in columns]
    blocks = triplet_blocks(*elements)[0]
    assert blocks.shape == (5555, 2, 3, 3)
    _same_bits(marginals._eig(blocks), np.linalg.eigvalsh(blocks))
    rhos = np.array([A, B, B, C, B, D, D, E, B, D, D, E, C, E, E, F]).T.reshape(-1, 4, 4)
    w, v = marginals._eig(rhos, vectors=True)
    want_w, want_v = np.linalg.eigh(rhos)
    _same_bits(w, want_w)
    _same_bits(v, want_v)


@pytest.mark.parametrize("vectors, gufunc", [(False, "eigvalsh_lo"), (True, "eigh_lo")])
def test_eig_failures_are_typed(monkeypatch, vectors, gufunc):
    # a non-finite entry goes on to LAPACK, which may fail on it or return NaN, and then
    # _eig does the same as numpy
    mats = np.array([np.eye(3), np.diag([0.5, 0.25, 0.25])])
    solver = np.linalg.eigh if vectors else np.linalg.eigvalsh
    for bad in (np.nan, np.inf):
        mats[1, 0, 1] = mats[1, 1, 0] = bad
        try:
            want = solver(mats)
        except np.linalg.LinAlgError as exc:
            with pytest.raises(NumericalInstabilityError, match=f"^eigensolver failed: {exc}$"):
                marginals._eig(mats, vectors)
        else:
            got = marginals._eig(mats, vectors)
            if not vectors:
                got, want = [got], [want]
            for got_part, want_part in zip(got, want, strict=True):
                _same_bits(got_part, want_part)
    monkeypatch.setattr(marginals._umath_linalg, gufunc, _fails_to_converge)
    with pytest.raises(NumericalInstabilityError, match=r"^eigensolver failed: Eigenvalues "):
        marginals._eig(np.array([np.eye(3)]), vectors)


def test_single_qubit_marginal_validation():
    p = DickeParams(4, 2, 0.5)
    with pytest.raises(NotDensityMatrixError):
        SingleQubitMarginal(p, SmallMatrix(2, (0.5, 0.1, -0.1, 0.5)))
    with pytest.raises(NotDensityMatrixError):
        SingleQubitMarginal(p, SmallMatrix(2, (0.7, 0.0, 0.0, 0.7)))
    with pytest.raises(NotDensityMatrixError):
        SingleQubitMarginal(p, SmallMatrix(2, (1.4, 0.0, 0.0, -0.4)))
    with pytest.raises(NotDensityMatrixError):
        SingleQubitMarginal(p, SmallMatrix(2, (0.5, 0.6, 0.6, 0.5)))  # det -0.11
    with pytest.raises(InvalidParamsError):
        SingleQubitMarginal(p, SmallMatrix(4, (0.0,) * 16))


def _pair_form(A, B, C, D, E, F):
    return np.array([[A, B, B, C], [B, D, D, E], [B, D, D, E], [C, E, E, F]])


def _asymmetric_probe():
    # off-diagonals 0.1 and 0.1 + 5e-13: its one-qubit trace is [[0.5, 0.1], [0.1 + 5e-13, 0.5]]
    rho = np.diag([0.25] * 4)
    rho[0, 2], rho[2, 0] = 0.1, 0.1 + 5e-13
    return rho


_ENGINE = two_qubit_marginal(DickeParams(6, 3, 0.4))
_ENGINE_ELEMENTS = (_ENGINE.A, _ENGINE.B, _ENGINE.C, _ENGINE.D, _ENGINE.E, _ENGINE.F)
# name: (A..F, or None where only a 4x4 can carry the defect; that 4x4, or None for the pair
# form of A..F; the class every entry point raises, or None). The one-qubit trace of each 4x4
# carries its defect. Each refused case was refused by at least one entry point of 0.12.0.
_VERDICT_CASES = {
    "engine": (_ENGINE_ELEMENTS, None, None),
    "bell-phi+": ((0.5, 0.0, 0.5, 0.0, 0.0, 0.5), None, None),
    "product": ((1.0, 0.0, 0.0, 0.0, 0.0, 0.0), None, None),
    # the four probes on which the entry points of 0.12.0 disagreed
    "trace-1+5e-11": ((_ENGINE.A + 5e-11, *_ENGINE_ELEMENTS[1:]), None, NotDensityMatrixError),
    "diagonal--1e-13": ((-1e-13, 0.0, 0.0, 0.0, 0.0, 1.0 + 1e-13), None, NotDensityMatrixError),
    "diagonal--1e-11": ((-1e-11, 0.0, 0.0, 0.0, 0.0, 1.0 + 1e-11), None, NotDensityMatrixError),
    "asymmetric-5e-13": (None, _asymmetric_probe(), NotDensityMatrixError),
    # examples every entry point refused
    "trace-1.1": ((0.4, 0.0, 0.0, 0.2, 0.0, 0.3), None, NotDensityMatrixError),
    "diagonal--0.2": ((-0.2, 0.0, 0.0, 0.0, 0.0, 1.2), None, NotDensityMatrixError),
    "det--0.11": ((0.5, 0.6, 0.0, 0.0, 0.0, 0.5), None, NotDensityMatrixError),
    "garbage": ((0.0, 0.0, 5.0, 0.25, 5.0, 0.5), None, NotDensityMatrixError),
    "nan": ((math.nan, 0.0, 0.0, 0.5, 0.0, 0.0), None, InvalidParamsError),
}


def _raised(fn):
    """The class of the package error fn() raises, or None if it returns."""
    try:
        fn()
    except DicketangleError as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("case", list(_VERDICT_CASES))
def test_every_entry_point_gives_a_density_matrix_the_same_verdict(case):
    elements, rho, want = _VERDICT_CASES[case]
    if rho is None:
        rho = _pair_form(*elements)
    rho1 = np.trace(rho.reshape(2, 2, 2, 2), axis1=1, axis2=3)
    verdicts = {
        "concurrence_two_qubit": _raised(
            lambda: concurrence_two_qubit(SmallMatrix(4, rho.ravel()))
        ),
        "concurrence_stack": _raised(lambda: measures.concurrence_stack(rho[None])),
        "SingleQubitMarginal": _raised(
            lambda: SingleQubitMarginal(None, SmallMatrix(2, rho1.ravel()))
        ),
    }
    if elements is not None:
        verdicts["TwoQubitMarginal"] = _raised(lambda: TwoQubitMarginal(None, *elements))
    assert verdicts == dict.fromkeys(verdicts, want)


def test_density_stack_names_the_first_matrix_that_fails_the_first_failed_test():
    good = marginal_matrix(_ENGINE).to_array()
    not_psd, trace = np.diag([1.2, -0.2, 0.0, 0.0]), np.diag([0.5, 0.25, 0.25, 0.125])
    with pytest.raises(NotDensityMatrixError) as raised:
        density_stack([good, not_psd, trace, 1.5 * trace], 4, "rho")
    assert str(raised.value) == "rho must have unit trace, got 1.125"
    with pytest.raises(NotDensityMatrixError) as raised:
        density_stack([good, not_psd], 4, "rho")
    assert str(raised.value) == "rho must be positive semidefinite, got smallest eigenvalue -0.2"
    assert density_stack([good], 4, "rho").tolist() == [good.tolist()]
    with pytest.raises(InvalidParamsError) as raised:
        concurrence_two_qubit(SmallMatrix(2, (0.5, 0.0, 0.0, 0.5)))
    assert str(raised.value) == "two-qubit density matrix must have shape (m, 4, 4), got (1, 2, 2)"


def test_dense_marginals_pass_the_density_rule():
    """The dense rho2 and rho1 of expand_state at every (N, k) of the oracle, a = 0 and 1
    included: the oracle runs the rule on them, and concurrence_stack's trace tolerance is
    1e-12."""
    grid = np.linspace(0.0, 1.0, 11)
    for n in range(2, 13):
        for k in range(1, n // 2 + 1):
            states = [expand_state(DickeParams(n, k, float(a))) for a in grid]
            density_stack([partial_trace_to_two(s).to_array() for s in states], 4, "rho2")
            density_stack([partial_trace_to_one(s).to_array() for s in states], 2, "rho1")


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


@pytest.mark.parametrize(
    "n,k", [(2, 1), (3, 1), (8, 4), (100, 2), (1000, 500), (10**6, 3), (10**7, 2)]
)
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


_INVARIANT_N = (*range(2, 13), 50, 100, 1000, 5000, 10**6, 10**9, 2**53)
# the 201-point grid of the README sweep's a, plus the extremes of float range
_INVARIANT_A = [
    *np.linspace(0.0, 1.0, 201),
    5e-324, 1e-300, 1e-200, 1e-100, 1e-16, 1e-8, 1.0 - 1e-8, 1.0 - 1e-15, 1.0 - 2.0**-53,
]


def test_built_marginals_are_finite_unit_trace_and_psd():
    """tangle_grid does not re-check the marginals it builds: each is the partial trace of a
    normalised state, so A..F are finite, A, D, F >= 0, A + 2D + F = 1, and the triplet block
    R = T rho T^T (formed here from A..F) and rho_1 are positive semidefinite, up to rounding.
    This holds those invariants, and that tangle_grid computes every row of each pair without
    a NumericalInstabilityError."""
    assert len(_INVARIANT_A) == 210
    for n in _INVARIANT_N:
        for k in sorted({k for k in (1, 2, 3, n // 4, n // 2) if 1 <= k <= min(n // 2, 3000)}):
            A, B, C, D, E, F = elements = marginal_elements(n, amplitude_rows(n, k, _INVARIANT_A))
            assert all(np.isfinite(x).all() for x in elements), (n, k)
            assert min(A.min(), D.min(), F.min()) >= 0.0, (n, k)
            assert np.abs(A + 2.0 * D + F - 1.0).max() <= 1e-13, (n, k)
            sB, sE = math.sqrt(2.0) * B, math.sqrt(2.0) * E
            R = np.array([A, sB, C, sB, D + D, sE, C, sE, F]).T.reshape(-1, 3, 3)
            assert np.linalg.eigvalsh(R)[:, 0].min() >= -1e-13, (n, k)
            density_stack(R, 3, "triplet block R")
            assert ((A + D) * (D + F) - (B + E) ** 2).min() >= -1e-13, (n, k)
            # the engine accepts the pair's every row without an abort, which would end a sweep
            measures.tangle_grid([(n, k)], _INVARIANT_A)
