"""End-to-end acceptance checks.

Each test covers one advertised guarantee of the package and prints a
single PASS/FAIL line (run with `pytest -s` to see them all). Grids and
tolerances here are contractual; loosening them is a behavior change.
"""

import math
import time

import numpy as np
import pytest

from dicketangle.cli import oracle_deviations
from dicketangle.dicke import DickeParams, amplitudes
from dicketangle.marginals import marginal_matrix, two_qubit_marginal
from dicketangle.measures import (
    TangleRecord,
    concurrence_two_qubit,
    negativity_two_qubit,
    tangle_record,
    tangle_table,
)
from dicketangle.oracle import Spinor, expand_state, symmetrize_two_spinors

A_GRID_101 = [i / 100 for i in range(101)]
A_GRID_11 = [i / 10 for i in range(11)]


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _dense_pairs(n_max: int):
    return [(n, k) for n in range(2, n_max + 1) for k in range(1, n // 2 + 1)]


def _records(n: int, k: int, grid):
    """One tangle_table call, each row checked as a TangleRecord."""
    rows = zip(*(col.tolist() for col in tangle_table(n, k, grid)))
    return [TangleRecord(DickeParams(n, k, a), *row) for a, row in zip(grid, rows)]


@pytest.fixture(scope="module")
def check_grid_records():
    """tangle records on the dense N <= 12 grid plus N in {50, 100} spots."""
    pairs = _dense_pairs(12) + [(n, k) for n in (50, 100) for k in range(1, 6)]
    return {(n, k): _records(n, k, A_GRID_101) for n, k in pairs}


@pytest.fixture(scope="module")
def sweep_family_records():
    """tangle records for N in {10, 100}, k in 2..5, 101-point a-grid."""
    return {(n, k): _records(n, k, A_GRID_101) for n in (10, 100) for k in (2, 3, 4, 5)}


def test_criterion_1_w_class_saturation():
    start = time.perf_counter()
    worst = 0.0
    for n in range(3, 101):
        for a in A_GRID_101:
            worst = max(worst, abs(tangle_record(DickeParams(n, 1, a)).tau))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 5.0
    _verdict(1, ok, f"k=1 tangle max |tau| = {worst:.3e} (< 1e-9), {elapsed:.2f}s (< 5s)")


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    dev_rho = 0.0
    dev_meas = 0.0
    for n, k in _dense_pairs(12):
        devs = oracle_deviations(n, k, A_GRID_11)
        dev_rho = max(dev_rho, devs["marginal"], devs["partial-transpose"])
        dev_meas = max(dev_meas, devs["measures"])
    elapsed = time.perf_counter() - start
    ok = dev_rho <= 1e-12 and dev_meas <= 1e-10 and elapsed < 60.0
    _verdict(
        2,
        ok,
        f"N<=12 marginal dev = {dev_rho:.3e} (<= 1e-12), "
        f"measure dev = {dev_meas:.3e} (<= 1e-10), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_3_canonical_form_equivalence():
    up = Spinor(1.0, 0.0)
    dev = 0.0
    for n, k in _dense_pairs(12):
        for a in A_GRID_11:
            params = DickeParams(n, k, a)
            direct = expand_state(params).amplitudes
            built = symmetrize_two_spinors(n, k, up, Spinor(a, params.b)).amplitudes
            dev = max(dev, float(np.max(np.abs(direct - built))))
    ok = dev <= 1e-12
    _verdict(3, ok, f"two-spinor vs canonical expansion dev = {dev:.3e} (<= 1e-12)")


def test_criterion_4_point_values():
    tol = 1e-10
    w = DickeParams(3, 1, 0.0)
    w_marg = two_qubit_marginal(w)
    w_rec = tangle_record(w)
    half = DickeParams(4, 2, 0.0)
    half_marg = two_qubit_marginal(half)
    half_rec = tangle_record(half)
    checks = [
        abs(concurrence_two_qubit(marginal_matrix(w_marg)) - 2 / 3),
        abs(negativity_two_qubit(w_marg) - (math.sqrt(5) - 1) / 3),
        abs(w_rec.tau),
        abs(w_rec.xi - 4 * (math.sqrt(5) - 1) / 9),
        abs(concurrence_two_qubit(marginal_matrix(half_marg)) - 1 / 3),
        abs(negativity_two_qubit(half_marg) - 1 / 3),
        abs(half_rec.tau - 2 / 3),
        abs(half_rec.xi - 2 / 3),
    ]
    worst = max(checks)
    _verdict(4, worst <= tol, f"eight frozen point values, worst dev = {worst:.3e} (<= 1e-10)")


def test_criterion_5_monogamy(check_grid_records):
    worst = 0.0
    where = "-"
    for (n, k), recs in check_grid_records.items():
        for a, rec in zip(A_GRID_101, recs):
            low = min(rec.tau, rec.xi)
            if low < worst:
                worst, where = low, f"(N={n}, k={k}, a={a:g})"
    ok = worst >= -1e-10
    _verdict(5, ok, f"min(tau, xi) = {worst:.3e} at {where} (>= -1e-10)")


def test_criterion_6_ordering(check_grid_records):
    worst = math.inf
    where = "-"
    for (n, k), recs in check_grid_records.items():
        for a, rec in zip(A_GRID_101, recs):
            gap = rec.xi - rec.tau
            if gap < worst:
                worst, where = gap, f"(N={n}, k={k}, a={a:g})"
    ok = worst >= -1e-10
    _verdict(6, ok, f"min(xi - tau) = {worst:.3e} at {where} (>= -1e-10)")


def test_criterion_7_family_shape(sweep_family_records):
    tol = 1e-10
    worst = math.inf
    where = "-"

    def observe(margin, label):
        nonlocal worst, where
        if margin < worst:
            worst, where = margin, label

    for (n, k), recs in sweep_family_records.items():
        taus = [rec.tau for rec in recs]
        xis = [rec.xi for rec in recs]
        for i in range(100):
            observe(taus[i] - taus[i + 1], f"tau step (N={n}, k={k}, i={i})")
            observe(xis[i] - xis[i + 1], f"xi step (N={n}, k={k}, i={i})")
        observe(min(taus[0] - t for t in taus), f"tau peak at a=0 (N={n}, k={k})")
        # |tau(a=1)| <= tol, expressed so `worst >= -tol` enforces it exactly
        observe(-abs(taus[-1]), f"tau at a=1 (N={n}, k={k})")
    for n in (10, 100):
        for k in (2, 3, 4):
            for i in range(101):
                observe(
                    sweep_family_records[(n, k + 1)][i].tau
                    - sweep_family_records[(n, k)][i].tau,
                    f"k-ordering (N={n}, k={k}->{k + 1}, i={i})",
                )
    for k in (2, 3, 4, 5):
        for i in range(101):
            observe(
                sweep_family_records[(10, k)][i].tau - sweep_family_records[(100, k)][i].tau,
                f"N=10 vs N=100 (k={k}, i={i})",
            )
    ok = worst >= -tol
    _verdict(7, ok, f"monotonicity/ordering margins, worst = {worst:.3e} at {where}")


def test_criterion_8_large_n_amplitude_stability():
    params = DickeParams(200, 100, 0.5)
    calls = 50
    start = time.perf_counter()
    for _ in range(calls):
        beta = amplitudes(params)
    per_call = (time.perf_counter() - start) / calls
    total = math.fsum(x * x for x in beta)
    finite = all(math.isfinite(x) for x in beta)
    ok = finite and abs(total - 1.0) <= 1e-10 and per_call < 0.010
    _verdict(
        8,
        ok,
        f"amplitudes(200, 100, 0.5): norm dev = {abs(total - 1.0):.3e} (<= 1e-10), "
        f"{per_call * 1e3:.2f} ms/call (< 10 ms)",
    )
