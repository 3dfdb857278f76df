"""The engine's stacked numpy calls against the termwise expressions they stand for.

amplitude_rows, marginal_elements and triplet_blocks (its Cholesky factor
and H among them) form their results in a few stacked numpy calls, and
_wootters and _negativity test their aborts with one check on the usual
path. Each is held here, bit for bit, to an in-test copy of the termwise
expression (one numpy call per element, every abort tested on its own), and
each abort to the error class and message the termwise checks raise, first
failing check first.
"""

import numpy as np
import pytest

from dicketangle import cli, marginals, measures, oracle
from dicketangle.dicke import DickeParams, amplitude_rows
from dicketangle.errors import NumericalInstabilityError
from dicketangle.marginals import (
    marginal_elements,
    marginal_matrix,
    triplet_blocks,
    two_qubit_marginal,
)

_SQRT1_2 = np.sqrt(0.5)
_SQRT2 = np.sqrt(2.0)

POINTS = [(2, 1), (3, 1), (10, 3), (64, 32), (1000, 500), (10**9, 3), (2**53, 2)]
# a = 0, 1e-160 (a subnormal first pivot at N = 2), 1e-300, 1 - 2^-53 and 1 reach zero pivots;
# -0.0 passes check_a_values, and log(-0.0) is -inf as log(0.0) is
A_VALUES = [0.0, -0.0, 1e-160, 1e-300, 0.3, 0.5, 1.0 - 2.0**-53, 1.0]
A_VALUES += np.random.default_rng(26).random(16).tolist()


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    # == alone would let -0.0 stand for 0.0
    assert got.tobytes() == want.tobytes()


def _amplitude_rows_termwise(n, k, a_values):
    a = np.asarray(a_values, dtype=float)
    r = np.arange(k, dtype=float)
    log_r1, log_n_r = np.log(np.array([r + 1.0, n - r]))
    with np.errstate(divide="ignore"):
        log_b_over_a = np.log(np.sqrt((1.0 - a) * (1.0 + a))) - np.log(a)
    steps = (log_r1[::-1] - 0.5 * (log_n_r + log_r1)) + log_b_over_a[:, None]
    peak = (steps > 0.0).sum(axis=1, keepdims=True)
    logs = np.zeros((len(a), k + 1))
    logs[:, 1:] = np.cumsum(np.where(r >= peak, steps, 0.0), axis=1)
    logs[:, :-1] -= np.cumsum(np.where(r < peak, steps, 0.0)[:, ::-1], axis=1)[:, ::-1]
    raw = np.exp(logs)
    return raw / np.sqrt((raw * raw).sum(axis=1, keepdims=True))


def _marginal_elements_termwise(n, beta):
    """The six sums of marginal_elements' docstring, one product and one sum each."""
    r = np.arange(beta.shape[1], dtype=float)
    n_r = n - r
    cp, c0, cm = np.sqrt(
        np.array([n_r * (n_r - 1.0), 2.0 * r * n_r, r * (r - 1.0)]) / float(n * (n - 1))
    )
    sq = beta * beta
    near = beta[:, :-1] * beta[:, 1:]
    far = beta[:, :-2] * beta[:, 2:]
    return (
        (sq * (cp * cp)).sum(axis=1),
        _SQRT1_2 * (near * (cp[:-1] * c0[1:])).sum(axis=1),
        (far * (cp[:-2] * cm[2:])).sum(axis=1),
        0.5 * (sq * (c0 * c0)).sum(axis=1),
        _SQRT1_2 * (near * (c0[:-1] * cm[1:])).sum(axis=1),
        (sq * (cm * cm)).sum(axis=1),
    )


def _h_termwise(A, B, C, D, E, F):
    """H = L^T Y3 L of triplet_blocks' docstring, in the order (2, 1, 3): the pivots of R
    and the entries of its unit lower factor U one by one, a zero pivot zeroing the rest of
    its column of U; a pivot below the smallest normal double counts as zero."""
    sB, sE = _SQRT2 * B, _SQRT2 * E
    shape = np.shape(A)
    tiny = np.finfo(float).tiny
    u21 = np.divide(sB, A, out=np.zeros(shape), where=A >= tiny)
    u31 = np.divide(C, A, out=np.zeros(shape), where=A >= tiny)
    b_over_a = np.divide(B, A, out=np.zeros(shape), where=A >= tiny)
    two_b2_over_a = 2.0 * B * b_over_a
    d2 = np.maximum(2.0 * D - two_b2_over_a, 0.0)
    e = sE - sB * u31
    u32 = np.divide(e, d2, out=np.zeros(shape), where=d2 >= tiny)
    d3 = np.maximum(F - C * u31 - e * u32, 0.0)
    h12 = np.sqrt(A * d2) * (u21 - u32)
    h13 = -np.sqrt(A * d3)
    g = two_b2_over_a - 2.0 * C
    zero = np.zeros(shape)
    return np.array([d2, h12, zero, h12, g, h13, zero, h13, zero]).T.reshape(-1, 3, 3)


def _triplet_blocks_termwise(A, B, C, D, E, F):
    sB, sE = _SQRT2 * B, _SQRT2 * E
    P = np.array([A, sB, D, sB, D + C, sE, D, sE, F]).T.reshape(-1, 3, 3)
    rho1 = np.array([A + D, B + E, B + E, D + F]).T.reshape(-1, 2, 2)
    return np.stack([_h_termwise(A, B, C, D, E, F), P], axis=1), D - C, rho1


def _first(values, bad):
    return values[bad].reshape(-1)[0].item()


def _wootters_termwise(mu):
    roots = np.sort(np.abs(mu), axis=-1)
    value = np.maximum(0.0, roots[..., -1] - roots[..., :-1].sum(axis=-1))
    bad = ~(value <= 1.0 + 1e-10)
    if bad.any():
        raise NumericalInstabilityError(f"concurrence left [0, 1]: {_first(value, bad)!r}")
    return np.minimum(value, 1.0)


def _negativity_termwise(eigs, singlet):
    """2 max(0, -min(smallest eigenvalue of P, D - C)): the one negative eigenvalue a
    two-qubit partial transpose can have; 0.0 - x keeps -0.0 out."""
    value = 2.0 * np.maximum(0.0, 0.0 - np.minimum(eigs[..., 0], singlet))
    bad = ~(value <= 1.0 + 1e-10)
    if bad.any():
        raise NumericalInstabilityError(f"doubled negativity left [0, 1]: {_first(value, bad)!r}")
    return np.minimum(value, 1.0)


def _negativity_summed(eigs, singlet):
    """The doubled negativity as twice the summed moduli of every negative eigenvalue of P
    and of D - C: the stage's form before 0.18.3."""
    value = 2.0 * (np.abs(np.minimum(eigs, 0.0)).sum(axis=-1) + np.abs(np.minimum(singlet, 0.0)))
    return np.minimum(value, 1.0)


def _c1_squared_termwise(A, B, C, D, E, F):
    det = (A + D) * (D + F) - (B + E) * (B + E)
    return np.minimum(4.0 * np.maximum(det, 0.0), 1.0)


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("n,k", POINTS)
def test_stacked_stages_equal_their_termwise_expressions(n, k):
    beta = amplitude_rows(n, k, A_VALUES)
    _same_bits(beta, _amplitude_rows_termwise(n, k, A_VALUES))
    elements = marginal_elements(n, beta)
    for got, want in zip(elements, _marginal_elements_termwise(n, beta), strict=True):
        _same_bits(got, want)
    blocks, singlet, rho1 = stages = triplet_blocks(*elements)
    for got, want in zip(stages, _triplet_blocks_termwise(*elements), strict=True):
        _same_bits(got, want)
    _same_bits(measures._c1_squared(rho1), _c1_squared_termwise(*elements))
    spectra = marginals._eig(blocks)
    _same_bits(spectra, np.linalg.eigvalsh(blocks))
    _same_bits(measures._wootters(spectra[:, 0]), _wootters_termwise(spectra[:, 0]))
    eigs = spectra[:, 1]
    _same_bits(measures._negativity(eigs, singlet), _negativity_termwise(eigs, singlet))


def test_triplet_blocks_of_floats_equal_their_termwise_expressions():
    # single_qubit_marginal and negativity_two_qubit pass six floats: one row, and D - C a float
    elements = [float(x[0]) for x in marginal_elements(10, amplitude_rows(10, 3, [0.3]))]
    expected = _triplet_blocks_termwise(*elements)
    for got, want in zip(triplet_blocks(*elements), expected, strict=True):
        _same_bits(got, want)


def test_checks_pass_what_the_termwise_checks_pass():
    # a spectrum with a negative eigenvalue, and an empty stack; rho_1 with det -0.75, 0 and
    # NaN, and with 4 det = 1 + 2e-12
    for mu in (
        np.array([[0.5, 0.3, 0.1], [-0.4, 0.2, 0.0]]),
        np.empty((0, 3)),
    ):
        _same_bits(measures._wootters(mu), _wootters_termwise(mu))
    for elements in (
        np.array([[0.5, 0.5, 0.0, 0.0, 0.5, 0.5], [0.5, 0.0, 0.0, 0.0, 0.0, 0.5], [np.nan] * 6,
                  [0.5 + 5e-13, 0.0, 0.0, 0.0, 0.0, 0.5 + 5e-13]]).T,
        np.empty((6, 0)),
    ):
        rho1 = triplet_blocks(*elements)[2]
        _same_bits(measures._c1_squared(rho1), _c1_squared_termwise(*elements))
    eigs = np.array([[-0.2, 0.5, 0.5], [0.0, 0.5, 0.5]])
    for singlet in (np.array([-0.1, 0.0]), np.array([0.0, -0.0])):
        _same_bits(measures._negativity(eigs, singlet), _negativity_termwise(eigs, singlet))
    # row 0 has two negative eigenvalues, -0.2 of P and -0.1 of D - C, which no two-qubit
    # partial transpose has: the stage reads the smaller, 0.4, where the sum read 0.6
    assert measures._negativity(eigs, np.array([-0.1, 0.0])).tolist() == [0.4, 0.0]
    _same_bits(measures._negativity(np.empty((0, 3)), np.empty(0)), np.empty(0))


def _negativity_inputs(elements):
    """The stage's inputs from A..F: P's eigenvalues, as the engine reads them from the
    [H, P] stack, and D - C."""
    blocks, singlet, _ = triplet_blocks(*elements)
    return marginals._eig(blocks)[:, 1], singlet


def test_negativity_is_the_summed_negative_eigenvalues_bit_for_bit():
    # the engine's P spectra on the README grid and the large-n-sweep grid, and those of
    # the dense marginals of every (N, k) with N <= 12 at 101 values of a
    readme = [(n, k) for n in (10, 100) for k in range(1, n // 2 + 1)]
    large = [(n, k) for n in (1000, 2000) for k in [1, 2, 3, 4, 5, *range(25, 501, 25)]]
    stacks = []
    for pairs, grid in ((readme, cli._a_grid(0.0, 1.0, 101)), (large, cli._a_grid(0.0, 1.0, 21))):
        stacks += [marginal_elements(n, amplitude_rows(n, k, grid)) for n, k in pairs]
    grid = cli._a_grid(0.0, 1.0, 101)
    for n in range(2, 13):
        for k in range(1, n // 2 + 1):
            rho2 = oracle.partial_traces(oracle.expand_states(n, k, grid), 4)
            # A..F at their places in the 4x4 of TwoQubitMarginal's docstring
            places = ((0, 0), (0, 1), (0, 3), (1, 1), (1, 3), (3, 3))
            stacks.append([rho2[:, i, j] for i, j in places])
    eigs, singlet = (np.concatenate(x) for x in zip(*map(_negativity_inputs, stacks)))
    assert len(singlet) == 5555 + 1050 + 3636
    _same_bits(measures._negativity(eigs, singlet), _negativity_summed(eigs, singlet))


@pytest.mark.parametrize(
    "mu,message",
    [
        (np.array([[np.nan, 0.1, 0.1], [1.5, 0.1, 0.1]]), "concurrence left [0, 1]: nan"),
        (np.array([[0.2, 0.1, 0.1], [1.5, 0.1, 0.1]]), "concurrence left [0, 1]: 1.3"),
    ],
)
def test_wootters_names_the_first_failed_abort(mu, message):
    want = (NumericalInstabilityError, message)
    assert _raised(measures._wootters, mu) == want
    assert _raised(_wootters_termwise, mu) == want


def test_negativity_aborts_read_as_the_termwise_checks():
    eigs = np.array([[-0.2, 0.5, 0.5], [-0.7, 0.5, 1.0]])
    cases = [
        (measures._negativity, _negativity_termwise, (eigs, np.array([-0.1, 0.0])),
         (NumericalInstabilityError, "doubled negativity left [0, 1]: 1.4")),
        (measures._negativity, _negativity_termwise, (eigs[:1], np.array([np.nan])),
         (NumericalInstabilityError, "doubled negativity left [0, 1]: nan")),
    ]
    for fn, termwise, args, want in cases:
        assert _raised(fn, *args) == want
        assert _raised(termwise, *args) == want


def _nan_spectra(mats, signature):
    return np.full(mats.shape[:-1], np.nan)


def test_engine_and_scalar_routes_name_the_first_failed_abort(monkeypatch):
    # the spectra are planted in the gufuncs under the seam marginals._eig. The engine reads
    # C2 from eigvalsh (real spectra), so a NaN is the first abort it can reach; the 4x4
    # route reads eigh, planted here with rho = 4 |Phi+><Phi+| (unnormalised, columns
    # (1, 0, 0, 1) and 0), whose M = G^T Y G is diag(-8, 0, 0, 0)
    rho = marginal_matrix(two_qubit_marginal(DickeParams(5, 2, 0.3)))
    lapack = marginals._umath_linalg
    with monkeypatch.context() as patch:
        patch.setattr(lapack, "eigvalsh_lo", _nan_spectra)
        want = (NumericalInstabilityError, "concurrence left [0, 1]: nan")
        assert _raised(measures.tangle_record, DickeParams(5, 2, 0.3)) == want
        assert _raised(measures.tangle_table, 5, 2, [0.1, 0.3]) == want
    v = np.zeros((1, 4, 4))
    v[0, 0, 0] = v[0, 3, 0] = 1.0
    monkeypatch.setattr(lapack, "eigh_lo", lambda mats, signature: (np.array([[4.0, 0, 0, 0]]), v))
    want = (NumericalInstabilityError, "concurrence left [0, 1]: 8.0")
    assert _raised(measures.concurrence_two_qubit, rho) == want
