import functools
import math

import numpy as np
import pytest

from dicketangle.dicke import DickeParams
from dicketangle.errors import (
    CapExceededError,
    InvalidParamsError,
    OutOfRangeError,
    WrongDimensionError,
)
from dicketangle.marginals import (
    marginal_matrix,
    single_qubit_marginal,
    two_qubit_marginal,
)
from dicketangle.oracle import (
    FullState,
    Spinor,
    expand_state,
    partial_trace_to_one,
    partial_trace_to_two,
    symmetrize_two_spinors,
)

UP = Spinor(1.0, 0.0)
DOWN = Spinor(0.0, 1.0)


def _equal_weight_state(n, indices):
    amp = np.zeros(2**n)
    amp[indices] = 1 / math.sqrt(len(indices))
    return FullState(n, amp)


# the Dicke states |3/2, 1/2> (the W state) and |2, 0>, basis strings listed by index
W3 = _equal_weight_state(3, [1, 2, 4])
D42 = _equal_weight_state(4, [3, 5, 6, 9, 10, 12])


def _overlap_spinor(a):
    return Spinor(a, math.sqrt(max(0.0, 1.0 - a * a)))


def test_spinor_validation_and_angles():
    with pytest.raises(InvalidParamsError):
        Spinor(1.0, 1.0)
    for c0, c1 in ((math.nan, 0.0), (1.0, math.nan), (math.inf, 0.0), ("x", 0), (None, 1)):
        with pytest.raises(InvalidParamsError):
            Spinor(c0, c1)
    # the Bloch-sphere spinor cos(pi/4)|0> + e^{0.7i} sin(pi/4)|1>
    s = Spinor(math.cos(math.pi / 4), np.exp(0.7j) * math.sin(math.pi / 4))
    assert s.c0 == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert s.c1 == pytest.approx(np.exp(0.7j) / math.sqrt(2), abs=1e-15)


def test_full_state_validation():
    with pytest.raises(InvalidParamsError):
        FullState(2, np.ones(4))
    with pytest.raises(InvalidParamsError):
        FullState(2, np.array([1.0, 0.0]))
    with pytest.raises(InvalidParamsError):
        FullState(2.5, np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(InvalidParamsError):
        FullState(1, np.array([math.nan, 0.0]))
    with pytest.raises(InvalidParamsError):
        FullState(1, ["a", 0])
    assert FullState(2.0, np.array([1.0, 0.0, 0.0, 0.0])).n_qubits == 2
    state = FullState(1, np.array([0.6, 0.8]))
    with pytest.raises(ValueError):
        state.amplitudes[0] = 1.0


def test_expand_state_at_a_0_is_the_dicke_state():
    w = expand_state(DickeParams(3, 1, 0.0)).amplitudes
    assert np.allclose(w, W3.amplitudes, atol=1e-15, rtol=0.0)
    half = expand_state(DickeParams(4, 2, 0.0)).amplitudes
    assert np.allclose(half, D42.amplitudes, atol=1e-15, rtol=0.0)


def test_expand_state_enforces_cap():
    with pytest.raises(CapExceededError):
        expand_state(DickeParams(15, 1, 0.5))


def test_expand_state_two_qubits_closed_form():
    for a in np.linspace(0.0, 1.0, 11):
        params = DickeParams(2, 1, float(a))
        b = params.b
        norm = math.sqrt(4 * a * a + 2 * b * b)
        want = np.array([2 * a, b, b, 0.0]) / norm
        got = expand_state(params).amplitudes
        assert np.allclose(got, want, atol=1e-14, rtol=0.0)


def test_expand_state_is_weight_symmetric():
    params = DickeParams(7, 3, 0.42)
    amp = expand_state(params).amplitudes
    weights = np.array([i.bit_count() for i in range(2**7)])
    for w in range(8):
        block = amp[weights == w]
        assert np.all(block == block[0])
    assert np.linalg.norm(amp) == pytest.approx(1.0, abs=1e-13)


def test_expand_state_endpoint_is_product():
    amp = expand_state(DickeParams(6, 2, 1.0)).amplitudes
    assert amp[0] == 1.0
    assert np.count_nonzero(amp) == 1


def test_symmetrize_recovers_w_state():
    got = symmetrize_two_spinors(3, 1, UP, DOWN)
    assert np.allclose(got.amplitudes, W3.amplitudes, atol=1e-15, rtol=0.0)


def test_symmetrize_recovers_bell_state():
    got = symmetrize_two_spinors(2, 1, UP, DOWN)
    want = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2)
    assert np.allclose(got.amplitudes, want, atol=1e-15, rtol=0.0)


def test_symmetrize_identical_spinors_gives_product_state():
    s = Spinor(math.cos(0.55), math.sin(0.55))
    got = symmetrize_two_spinors(4, 2, s, s)
    vec = np.array([s.c0, s.c1])
    want = functools.reduce(np.kron, [vec] * 4)
    assert np.allclose(got.amplitudes, want, atol=1e-13, rtol=0.0)


def test_symmetrize_matches_canonical_expansion():
    """Overlap a alone fixes the state: both construction routes coincide."""
    for n in range(2, 11):
        for k in range(1, n // 2 + 1):
            for a in (0.0, 0.3, 0.7, 1.0):
                params = DickeParams(n, k, a)
                direct = expand_state(params).amplitudes
                built = symmetrize_two_spinors(n, k, UP, _overlap_spinor(a)).amplitudes
                dev = float(np.max(np.abs(direct - built)))
                assert dev <= 1e-12, f"n={n} k={k} a={a}: {dev}"


def test_symmetrize_phase_is_local():
    # a relative phase on the second spinor acts as diag(1, e^{i p})^{(x)N},
    # so amplitude magnitudes cannot change
    plain = symmetrize_two_spinors(5, 2, UP, _overlap_spinor(0.6))
    phased = symmetrize_two_spinors(5, 2, UP, Spinor(0.6, 0.8 * np.exp(1.3j)))
    assert np.allclose(
        np.abs(phased.amplitudes), np.abs(plain.amplitudes), atol=1e-13, rtol=0.0
    )


def test_symmetrize_range_checks():
    with pytest.raises(OutOfRangeError):
        symmetrize_two_spinors(4, 0, UP, DOWN)
    with pytest.raises(OutOfRangeError):
        symmetrize_two_spinors(4, 4, UP, DOWN)
    with pytest.raises(OutOfRangeError):
        symmetrize_two_spinors(3.5, 1, UP, DOWN)
    with pytest.raises(OutOfRangeError):
        symmetrize_two_spinors(4, 1.5, UP, DOWN)
    with pytest.raises(CapExceededError):
        symmetrize_two_spinors(15, 1, UP, DOWN)


def test_partial_trace_of_w_state():
    rho2 = partial_trace_to_two(W3)
    want = [
        [1 / 3, 0, 0, 0],
        [0, 1 / 3, 1 / 3, 0],
        [0, 1 / 3, 1 / 3, 0],
        [0, 0, 0, 0],
    ]
    assert np.allclose(rho2.to_array(), want, atol=1e-15, rtol=0.0)
    rho1 = partial_trace_to_one(W3)
    assert np.allclose(rho1.to_array(), [[2 / 3, 0], [0, 1 / 3]], atol=1e-15, rtol=0.0)


def test_partial_trace_of_product_state():
    psi = expand_state(DickeParams(4, 2, 1.0))
    rho2 = partial_trace_to_two(psi)
    assert rho2.to_array()[0, 0] == 1.0
    assert np.trace(rho2.to_array()) == 1.0
    rho1 = partial_trace_to_one(psi)
    assert rho1.to_array().tolist() == [[1.0, 0.0], [0.0, 0.0]]


def test_partial_trace_of_bell_pair_keeps_purity():
    psi = expand_state(DickeParams(2, 1, 0.0))
    rho2 = partial_trace_to_two(psi)  # nothing traced out: pure projector
    arr = rho2.to_array()
    assert np.trace(arr @ arr) == pytest.approx(1.0, abs=1e-14)
    rho1 = partial_trace_to_one(psi)
    assert np.allclose(rho1.to_array(), [[0.5, 0.0], [0.0, 0.5]], atol=1e-15, rtol=0.0)


def test_partial_trace_pair_choice_is_irrelevant():
    psi = expand_state(DickeParams(5, 2, 0.6))
    base = partial_trace_to_two(psi).to_array()
    for pair in [(0, 1), (1, 3), (2, 4), (3, 4), (0, 4)]:
        other = partial_trace_to_two(psi, pair).to_array()
        assert np.allclose(other, base, atol=1e-14, rtol=0.0)
    rho1_base = partial_trace_to_one(psi).to_array()
    for q in range(5):
        assert np.allclose(partial_trace_to_one(psi, q).to_array(), rho1_base, atol=1e-14, rtol=0.0)


def test_partial_trace_index_checks():
    psi = expand_state(DickeParams(3, 1, 0.5))
    with pytest.raises(OutOfRangeError):
        partial_trace_to_two(psi, (0, 0))
    with pytest.raises(OutOfRangeError):
        partial_trace_to_two(psi, (0, 3))
    with pytest.raises(OutOfRangeError):
        partial_trace_to_one(psi, -1)
    with pytest.raises(OutOfRangeError):
        partial_trace_to_one(psi, 1.5)
    with pytest.raises(OutOfRangeError):
        partial_trace_to_two(psi, (0, 1.5))
    with pytest.raises(OutOfRangeError):
        partial_trace_to_two(psi, 5)
    with pytest.raises(OutOfRangeError, match="exactly two"):
        partial_trace_to_two(psi, (0,))
    with pytest.raises(OutOfRangeError, match="exactly two"):
        partial_trace_to_two(psi, (0, 1, 2))
    # integral values name qubits as ints do
    assert partial_trace_to_two(psi, (0, 1.0)) == partial_trace_to_two(psi, (0, 1))
    single = FullState(1, np.array([1.0, 0.0]))
    with pytest.raises(WrongDimensionError):
        partial_trace_to_two(single)


def test_partial_trace_rejects_complex_marginal():
    tilted = Spinor(math.cos(math.pi / 6), np.exp(0.7j) * math.sin(math.pi / 6))
    phased = symmetrize_two_spinors(3, 1, UP, tilted)
    with pytest.raises(InvalidParamsError):
        partial_trace_to_two(phased)


def test_brute_force_agrees_with_closed_form_marginals():
    for n in range(2, 9):
        for k in range(1, n // 2 + 1):
            for a in (0.0, 0.25, 0.5, 0.75, 1.0):
                params = DickeParams(n, k, a)
                psi = expand_state(params)
                brute2 = partial_trace_to_two(psi).to_array()
                slick2 = marginal_matrix(two_qubit_marginal(params)).to_array()
                assert np.max(np.abs(brute2 - slick2)) <= 1e-12, params
                brute1 = partial_trace_to_one(psi).to_array()
                slick1 = single_qubit_marginal(two_qubit_marginal(params)).rho.to_array()
                assert np.max(np.abs(brute1 - slick1)) <= 1e-13, params
