import functools
import math

import numpy as np
import pytest

from dicketangle.dicke import DickeParams
from dicketangle.errors import CapExceededError, InvalidParamsError
from dicketangle.marginals import (
    SingleQubitMarginal,
    TwoQubitMarginal,
    marginal_matrix,
    single_qubit_marginal,
    two_qubit_marginal,
)
from dicketangle.measures import concurrence_two_qubit
from dicketangle.smallmat import SmallMatrix
from dicketangle import oracle
from dicketangle.oracle import (
    FullState,
    Spinor,
    expand_state,
    expand_states,
    partial_trace_to_one,
    partial_trace_to_two,
    partial_traces,
    symmetrize_two_spinors,
    symmetrized_states,
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
    for c0, c1 in ((math.nan, 0.0), (1.0, math.nan), (math.inf, 0.0), ("x", 0), (None, 1),
                   (10**400, 0)):
        with pytest.raises(InvalidParamsError):
            Spinor(c0, c1)
    # the Bloch-sphere spinor cos(pi/4)|0> + e^{0.7i} sin(pi/4)|1>
    s = Spinor(math.cos(math.pi / 4), np.exp(0.7j) * math.sin(math.pi / 4))
    assert s.c0 == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert s.c1 == pytest.approx(np.exp(0.7j) / math.sqrt(2), abs=1e-15)


def test_spinor_components_must_be_single_numbers():
    pairs = ((np.array([1.0, 0.0]), np.array([0.0, 1.0])), ([1.0], [0.0]), (np.array([1.0]), 0))
    for c0, c1 in pairs:
        with pytest.raises(InvalidParamsError, match="spinor components"):
            Spinor(c0, c1)


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
    with pytest.raises(InvalidParamsError):
        FullState(1, [10**400, 0])
    with pytest.raises(InvalidParamsError, match=r"expected 2\*\*20000 amplitudes"):
        FullState(20000, [1.0])
    with pytest.raises(InvalidParamsError, match="-<16610-bit integer>"):
        FullState(-(10**5000), [1.0])
    assert FullState(2.0, np.array([1.0, 0.0, 0.0, 0.0])).n_qubits == 2
    state = FullState(1, np.array([0.6, 0.8]))
    with pytest.raises(ValueError):
        state.amplitudes[0] = 1.0


def test_full_state_norm_meets_the_trace_tolerance_of_its_marginals():
    # each partial trace of a state has its squared norm as trace, held to 1e-12 by the rule
    amp = expand_state(DickeParams(6, 3, 0.4)).amplitudes
    with pytest.raises(InvalidParamsError, match="squared norm 1.00000000000179"):
        FullState(6, amp * math.sqrt(1.0 + 1.8e-12))
    state = FullState(6, amp * math.sqrt(1.0 + 8e-13))
    rho2 = partial_trace_to_two(state)
    e = rho2.entries
    TwoQubitMarginal(None, e[0], e[1], e[3], e[5], e[7], e[15])
    concurrence_two_qubit(rho2)
    SingleQubitMarginal(None, partial_trace_to_one(state))


def test_full_state_freezes_its_own_copy_not_the_callers_array():
    amplitudes = np.array([0.6, 0.8], dtype=complex)
    state = FullState(1, amplitudes)
    amplitudes[0] = 1.0
    assert state.amplitudes.tolist() == [0.6, 0.8]


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


def test_symmetrize_two_spinors_is_the_one_row_view_of_symmetrized_states():
    # real overlaps as the oracle takes them, and complex spinors with relative phases
    eps2s = [_overlap_spinor(a) for a in (0.0, 0.3, 0.6, 1.0)]
    eps2s += [Spinor(0.6, 0.8 * np.exp(1.3j)), Spinor(np.exp(0.4j) * 0.28, 0.96)]
    for n, k in ((2, 1), (5, 2), (9, 4), (12, 6)):
        for eps1 in (UP, Spinor(math.cos(0.55), np.exp(0.7j) * math.sin(0.55))):
            rows = symmetrized_states(n, k, eps1, eps2s)
            assert rows.shape == (len(eps2s), 2**n)
            for i, eps2 in enumerate(eps2s):
                one = symmetrize_two_spinors(n, k, eps1, eps2).amplitudes
                assert np.array_equal(one, rows[i]), (n, k, i)


def _symmetrized_every_term(n, k, eps1, eps2s):
    """symmetrized_states with every (w, t) term added, zero coefficients included."""
    powers = np.array(
        [[(s.c0 ** (k - t), s.c1**t) for t in range(k + 1)] for s in eps2s], dtype=complex
    ).reshape(len(eps2s), k + 1, 2)
    g = np.zeros((len(eps2s), n + 1), dtype=complex)
    for w in range(n + 1):
        for t in range(max(0, k - (n - w)), min(k, w) + 1):
            g[:, w] += (
                math.comb(w, t)
                * math.comb(n - w, k - t)
                * eps1.c0 ** (n - w - k + t)
                * eps1.c1 ** (w - t)
                * powers[:, t, 0]
                * powers[:, t, 1]
            )
    amp = g[:, oracle._hamming_weights(n)]
    amp /= np.array([np.linalg.norm(row) for row in amp]).reshape(-1, 1)
    return amp


def test_symmetrized_states_skips_only_terms_that_add_zero():
    # with eps1 = |0> (the oracle's) every term but t = w has a zero coefficient; the bytes,
    # signed zeros included, are those of the sum over every term
    eps2s = [_overlap_spinor(a) for a in (0.0, 1e-300, 0.3, 0.6, 1.0)]
    eps2s += [Spinor(0.6, 0.8 * np.exp(1.3j)), Spinor(np.exp(0.4j) * 0.28, -0.96), DOWN]
    eps1s = (UP, DOWN, Spinor(math.cos(0.55), np.exp(0.7j) * math.sin(0.55)), Spinor(0.6, -0.8),
             Spinor(0.6, 0.8j))
    for n, k in ((2, 1), (5, 2), (9, 4), (12, 1), (12, 6)):
        for eps1 in eps1s:
            got = symmetrized_states(n, k, eps1, eps2s)
            assert got.tobytes() == _symmetrized_every_term(n, k, eps1, eps2s).tobytes()


def test_symmetrized_states_checks_each_spinor():
    with pytest.raises(InvalidParamsError, match="eps2 must be a Spinor"):
        symmetrized_states(3, 1, UP, [DOWN, (0.0, 1.0)])
    with pytest.raises(InvalidParamsError, match="sequence of Spinor"):
        symmetrized_states(3, 1, UP, DOWN)


def test_symmetrize_range_checks():
    with pytest.raises(InvalidParamsError, match="need at least two qubits, got 1"):
        symmetrize_two_spinors(1, 1, UP, DOWN)
    with pytest.raises(InvalidParamsError):
        symmetrize_two_spinors(4, 0, UP, DOWN)
    with pytest.raises(InvalidParamsError):
        symmetrize_two_spinors(4, 4, UP, DOWN)
    with pytest.raises(InvalidParamsError):
        symmetrize_two_spinors(3.5, 1, UP, DOWN)
    with pytest.raises(InvalidParamsError):
        symmetrize_two_spinors(4, 1.5, UP, DOWN)
    with pytest.raises(CapExceededError):
        symmetrize_two_spinors(15, 1, UP, DOWN)
    with pytest.raises(CapExceededError, match="<16610-bit integer>"):
        symmetrize_two_spinors(10**5000, 1, UP, DOWN)
    with pytest.raises(InvalidParamsError, match="<16610-bit integer>"):
        symmetrize_two_spinors(10**5000, 0, UP, DOWN)


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


def test_partial_trace_keeps_the_leading_qubits():
    # |0>|1>|+> is not symmetric, so each pair and each qubit has its own marginal;
    # qubit 1 is the most significant bit of the amplitude index
    psi = _equal_weight_state(3, [0b010, 0b011])
    rho2 = np.zeros((4, 4))
    rho2[0b01, 0b01] = 1.0
    assert np.allclose(partial_trace_to_two(psi).to_array(), rho2, atol=1e-15, rtol=0.0)
    assert np.allclose(partial_trace_to_one(psi).to_array(), [[1, 0], [0, 0]], atol=1e-15, rtol=0.0)


def test_partial_trace_to_two_refuses_a_single_qubit():
    single = FullState(1, np.array([1.0, 0.0]))
    with pytest.raises(InvalidParamsError):
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


_STACK_A = [i / 10 for i in range(11)]


def test_one_point_functions_are_the_rows_of_the_stacked_ones():
    # every (N, k) of the oracle at 11 values of a, bit for bit
    for n in range(2, 13):
        for k in range(1, n // 2 + 1):
            rows = expand_states(n, k, _STACK_A)
            assert rows.shape == (len(_STACK_A), 2**n) and not rows.flags.writeable
            two, one = partial_traces(rows, 4), partial_traces(rows, 2)
            assert two.shape == (len(_STACK_A), 4, 4) and one.shape == (len(_STACK_A), 2, 2)
            for i, a in enumerate(_STACK_A):
                psi = expand_state(DickeParams(n, k, a))
                assert type(psi) is FullState and psi.n_qubits == n
                assert not psi.amplitudes.flags.writeable
                assert psi.amplitudes.tobytes() == rows[i].tobytes(), (n, k, a)
                rho2, rho1 = partial_trace_to_two(psi), partial_trace_to_one(psi)
                assert type(rho2) is SmallMatrix and rho2.dim == 4
                assert type(rho1) is SmallMatrix and rho1.dim == 2
                assert all(type(x) is float for x in rho2.entries + rho1.entries)
                assert rho2.to_array().tobytes() == two[i].tobytes(), (n, k, a)
                assert rho1.to_array().tobytes() == one[i].tobytes(), (n, k, a)
                # the views build their FullState and SmallMatrix unchecked; the checked ones match
                checked = FullState(n, psi.amplitudes)
                assert checked.amplitudes.tobytes() == psi.amplitudes.tobytes()
                assert SmallMatrix(4, two[i].ravel()) == rho2


def test_expand_states_checks_as_the_one_point_route_does():
    with pytest.raises(CapExceededError, match="N = 15 exceeds the dense-state cap 14"):
        expand_states(15, 1, [0.5])
    with pytest.raises(CapExceededError):
        expand_state(DickeParams(15, 1, 0.5))
    for n, k, a in ((1, 1, [0.5]), (4, 3, [0.5]), (4, 1.5, [0.5]), (4, 2, [0.5, 1.5]),
                    (4, 2, [math.nan]), (4, 2, [[0.5]]), (4, 2, ["x"])):
        with pytest.raises(InvalidParamsError):
            expand_states(n, k, a)
    assert expand_states(4, 2, 0.5).tobytes() == expand_states(4, 2, [0.5]).tobytes()
    assert expand_states(4, 2, []).shape == (0, 16)


def test_expand_states_refuses_a_row_off_unit_norm(monkeypatch):
    # every bitstring read as weight 0: at a = 1 each of the 2^N entries is 1
    monkeypatch.setattr(oracle, "_hamming_weights", lambda n: np.zeros(2**n, dtype=np.intp))
    with pytest.raises(InvalidParamsError, match=r"^state must have unit norm, got squared norm 16\.0$"):
        expand_states(4, 2, [1.0])
    with pytest.raises(InvalidParamsError, match="unit norm"):
        expand_state(DickeParams(4, 2, 1.0))


def test_partial_traces_refuse_an_imaginary_residue_and_a_non_finite_entry():
    tilted = Spinor(math.cos(math.pi / 6), np.exp(0.7j) * math.sin(math.pi / 6))
    rows = symmetrized_states(3, 1, UP, [_overlap_spinor(0.5), tilted])
    for dim in (2, 4):
        assert partial_traces(rows[:1], dim).shape == (1, dim, dim)
        with pytest.raises(InvalidParamsError, match="imaginary residue"):
            partial_traces(rows, dim)
    for bad in (math.nan, math.inf):
        rows = np.array([[0.6, 0.0, 0.0, 0.8], [bad, 0.0, 0.0, 0.0]], dtype=complex)
        for dim in (2, 4):
            # inf * 0 in the product makes numpy warn before the check refuses
            with np.errstate(invalid="ignore"):
                with pytest.raises(InvalidParamsError, match="matrix entries must be finite"):
                    partial_traces(rows, dim)
    for dim in (2, 4):
        assert partial_traces(expand_states(4, 2, []), dim).shape == (0, dim, dim)
