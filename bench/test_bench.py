"""Tests of the benchmark's own parts: the 50-digit reference and the output checks.

    python3 -m pytest bench -q

The reference is held against cases that need no eigensolver (Dicke states
at a = 0, product states at a = 1, the W class) and against the package's
dense oracle, which builds the state from its two spinors and traces it out
literally.
"""

import math
import sys
from pathlib import Path

import pytest
from mpmath import mp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402

TIGHT = mp.mpf(10) ** -40


@pytest.fixture(autouse=True)
def reference_precision():
    with mp.workdps(reference.DPS):
        yield


@pytest.mark.parametrize("n,k", [(2, 1), (5, 2), (10, 3), (100, 50), (1000, 7)])
def test_dicke_state_at_a_0(n, k):
    ref = reference.record(n, k, 0.0)
    m = ref.marginal
    pairs = mp.mpf(n * (n - 1))
    A, D, F = (n - k) * (n - k - 1) / pairs, k * (n - k) / pairs, k * (k - 1) / pairs
    for got, want in ((m.A, A), (m.B, 0), (m.C, 0), (m.D, D), (m.E, 0), (m.F, F)):
        assert abs(got - want) < TIGHT
    assert abs(ref.c2_sq - (2 * (D - mp.sqrt(A * F))) ** 2) < TIGHT
    assert abs(ref.c1_sq - mp.mpf(4 * k * (n - k)) / n**2) < TIGHT


@pytest.mark.parametrize("n,k", [(2, 1), (7, 3), (100, 50), (2000, 500)])
def test_product_state_at_a_1(n, k):
    ref = reference.record(n, k, 1.0)
    for name in checks.FIELDS:
        assert abs(getattr(ref, name)) < TIGHT


@pytest.mark.parametrize("n,a", [(3, 0.2), (10, 0.5), (1000, 0.9), (2000, 0.999)])
def test_w_class_saturates_monogamy(n, a):
    ref = reference.record(n, 1, a)
    assert ref.c2_sq > TIGHT
    assert abs(ref.tau) < TIGHT


def test_matches_dense_oracle():
    """A..F against the dense oracle; C2, N2 and C1^2 against the package's
    measures applied to the oracle's matrices, which are accurate to ~1e-10
    at N <= 12. C and E are non-zero here, unlike in the closed-form cases."""
    from dicketangle import measures
    from dicketangle.marginals import SingleQubitMarginal, TwoQubitMarginal
    from dicketangle.oracle import Spinor, partial_trace_to_one, partial_trace_to_two, symmetrize_two_spinors

    worst_elem = worst_measure = 0.0
    for n in range(2, 13):
        for k in range(1, n // 2 + 1):
            for a in (0.0, 0.3, 0.77, 1.0):
                b = math.sqrt((1.0 - a) * (1.0 + a))
                psi = symmetrize_two_spinors(n, k, Spinor(1.0, 0.0), Spinor(a, b))
                rho = partial_trace_to_two(psi)
                ref = reference.record(n, k, a)
                m = ref.marginal
                want = (m.A, m.B, m.B, m.C, m.B, m.D, m.D, m.E, m.B, m.D, m.D, m.E, m.C, m.E, m.E, m.F)
                worst_elem = max(worst_elem, max(abs(x - float(y)) for x, y in zip(rho.entries, want)))
                e = rho.entries
                marg = TwoQubitMarginal(None, A=e[0], B=e[1], C=e[3], D=e[5], E=e[7], F=e[15])
                c1 = measures.one_vs_rest(SingleQubitMarginal(None, partial_trace_to_one(psi)))
                dense = (measures.concurrence_two_qubit(rho) ** 2, measures.negativity_two_qubit(marg), c1 * c1)
                for got, name in zip(dense, ("c2_sq", "n2", "c1_sq")):
                    worst_measure = max(worst_measure, abs(got - float(getattr(ref, name))))
    assert worst_elem < 1e-13
    assert worst_measure < 1e-9


def test_checks_count_planted_errors():
    assert checks.self_test() == []
