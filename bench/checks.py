"""Output checks for the benchmark workloads, and a self-test that plants errors.

Every check uses one absolute budget, BUDGET. It was set from the error the
package shows against the 50-digit reference (bench/reference.py): the largest
|tau - tau_ref| seen over the README grid, the large-N grid and small-N points
near a = 1 was 1.2e-9, at (13, 2, 0.97), and xi falls below tau by at most
9.2e-10, at (1000, 500, 0.9). BUDGET is that error times eight, rounded up to
a power of ten.

A check failure marks the operation (sweep row, library call or oracle point)
as failed; the checks never compare against a stored copy of earlier output.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

BUDGET = 1e-8

FIELDS = ("c1_sq", "c2_sq", "tau", "n2", "xi")
CSV_HEADER = "N,k,a,c1_sq,c2_sq,tau,n2,xi"


@dataclass(frozen=True)
class Row:
    """One tangle record as the package reported it."""

    n: int
    k: int
    a: float
    c1_sq: float
    c2_sq: float
    tau: float
    n2: float
    xi: float


def dicke_closed_form(n: int, k: int) -> tuple[float, float]:
    """(c1_sq, c2_sq) of the Dicke state at a = 0, from its marginal A, D, F."""
    pairs = n * (n - 1)
    A = (n - k) * (n - k - 1) / pairs
    D = k * (n - k) / pairs
    F = k * (k - 1) / pairs
    c2 = max(0.0, 2.0 * (D - math.sqrt(A * F)))
    return 4.0 * k * (n - k) / (n * n), c2 * c2


def row_failures(row: Row, ref=None, budget: float = BUDGET) -> list[str]:
    """Names of the checks `row` fails; `ref` is a reference.RefRecord or None."""
    out = []
    n = row.n
    if abs(row.tau - (row.c1_sq - (n - 1) * row.c2_sq)) > budget:
        out.append("tau-identity")
    if abs(row.xi - (row.c1_sq - (n - 1) * row.n2 * row.n2)) > budget:
        out.append("xi-identity")
    if row.tau < -budget:
        out.append("tau-nonnegative")
    if row.xi < -budget:
        out.append("xi-nonnegative")
    if row.xi - row.tau < -budget:
        out.append("xi-ge-tau")
    if row.a == 0.0:
        c1_sq, c2_sq = dicke_closed_form(n, row.k)
        tau = c1_sq - (n - 1) * c2_sq
        if max(abs(row.c1_sq - c1_sq), abs(row.c2_sq - c2_sq), abs(row.tau - tau)) > budget:
            out.append("dicke-closed-form")
    if row.a == 1.0 and max(abs(getattr(row, f)) for f in FIELDS) > budget:
        out.append("zero-at-a-1")
    if row.k == 1 and abs(row.tau) > budget:
        out.append("w-class-tau-0")
    if ref is not None:
        if max(abs(getattr(row, f) - float(getattr(ref, f))) for f in FIELDS) > budget:
            out.append("reference")
    return out


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(why)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.extend(other.reasons[: max(0, 20 - len(self.reasons))])


def check_rows(rows: list[Row], expected: list, refs: dict, budget: float = BUDGET) -> Tally:
    """Check rows against the expected (N, k, a) list, in order.

    Each expected point is one operation; it fails when its row is missing,
    has another key, or fails a check. Rows beyond the expected count are
    failed operations too. `refs` maps a point to its reference record for
    the points checked against the reference.
    """
    tally = Tally()
    for i, point in enumerate(expected):
        if i >= len(rows):
            tally.record(False, f"missing row for {point}")
            continue
        row = rows[i]
        if (row.n, row.k, row.a) != tuple(point):
            tally.record(False, f"row {i} is {(row.n, row.k, row.a)}, expected {point}")
            continue
        bad = row_failures(row, refs.get(tuple(point)), budget)
        tally.record(not bad, f"{point}: {', '.join(bad)}")
    for row in rows[len(expected):]:
        tally.record(False, f"unexpected row {(row.n, row.k, row.a)}")
    return tally


def parse_csv(text: str) -> list[Row]:
    """Rows of a sweep CSV; raises ValueError on a malformed header or row."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"bad CSV header: {lines[:1]!r}")
    rows = []
    for line in lines[1:]:
        n, k, *vals = line.split(",")
        if len(vals) != 6:
            raise ValueError(f"bad CSV row: {line!r}")
        rows.append(Row(int(n), int(k), *map(float, vals)))
    return rows


def check_sweep(text: str, expected: list, refs: dict, budget: float = BUDGET) -> Tally:
    """Check a sweep CSV: header, row count and keys, and every row."""
    try:
        rows = parse_csv(text)
    except ValueError as exc:
        tally = Tally()
        for _ in expected:
            tally.record(False, str(exc))
        return tally
    return check_rows(rows, expected, refs, budget)


_PAIR_LINE = re.compile(r"^N=(\d+) k=(\d+): (.*)$")
_MAX_LINE = re.compile(r"^max deviation: (\S+)")


def check_oracle(exit_code: int, stdout: str, pairs: list, a_steps: int, tol: float) -> Tally:
    """Check `dicketangle oracle` output; each (N, k, a) point is one operation.

    A pair's a_steps points fail together when its line is missing or shows a
    deviation above tol. Every point fails when the run did not exit 0, did
    not print PASS, or printed a maximum deviation above tol.
    """
    tally = Tally()
    devs = {}
    max_dev = None
    passed = False
    for line in stdout.splitlines():
        m = _PAIR_LINE.match(line)
        if m:
            values = [float(part.split("=")[1]) for part in m.group(3).split()]
            devs[(int(m.group(1)), int(m.group(2)))] = max(values) if values else math.inf
        m = _MAX_LINE.match(line)
        if m:
            max_dev = float(m.group(1))
        passed = passed or line.startswith("PASS")
    run_ok = exit_code == 0 and passed and max_dev is not None and max_dev <= tol
    if len(devs) != len(pairs):
        run_ok = False
    for pair in pairs:
        dev = devs.get(tuple(pair))
        ok = run_ok and dev is not None and dev <= tol
        why = f"oracle (N, k) = {pair}: deviation {dev}, exit {exit_code}, PASS printed {passed}"
        for _ in range(a_steps):
            tally.record(ok, why)
    return tally


def check_dense(samples: list, refs: dict, budget: float = BUDGET) -> Tally:
    """Check dense-route marginals (rho2 and rho1 entries) against the reference."""
    tally = Tally()
    for point, rho2, rho1 in samples:
        m = refs[tuple(point)]
        A, B, C, D, E, F = (float(x) for x in (m.A, m.B, m.C, m.D, m.E, m.F))
        want2 = (A, B, B, C, B, D, D, E, B, D, D, E, C, E, E, F)
        want1 = (A + D, B + E, B + E, D + F)
        err = max(abs(x - y) for x, y in zip(rho2 + rho1, want2 + want1))
        ok = len(rho2) == 16 and len(rho1) == 4 and err <= budget
        tally.record(ok, f"dense {point}: {err:g}")
    return tally


def self_test() -> list[str]:
    """Plant errors and confirm each is counted as failed; returns the problems found."""
    from reference import record

    problems = []

    def row_of(n, k, a):
        ref = record(n, k, a)
        return Row(n, k, a, *(float(getattr(ref, f)) for f in FIELDS)), ref

    good, ref = row_of(10, 3, 0.5)
    if row_failures(good, ref):
        problems.append(f"an exact row fails: {row_failures(good, ref)}")

    off = 10 * BUDGET
    planted = {
        "tau-identity": Row(**{**good.__dict__, "tau": good.tau + off}),
        "xi-ge-tau": _xi_below_tau(good, off),
        "reference": Row(
            **{**good.__dict__, "c2_sq": good.c2_sq + off, "tau": good.tau - (good.n - 1) * off}
        ),
    }
    for check, row in planted.items():
        if check not in row_failures(row, ref):
            problems.append(f"planted {check} error not caught: {row_failures(row, ref)}")

    grid = [(4, k, a) for k in (1, 2) for a in (0.0, 0.5, 1.0)]
    rows = [row_of(*p)[0] for p in grid]
    text = CSV_HEADER + "\n" + "".join(
        f"{r.n},{r.k},{r.a!r},{r.c1_sq!r},{r.c2_sq!r},{r.tau!r},{r.n2!r},{r.xi!r}\n" for r in rows
    )
    whole = check_sweep(text, grid, {})
    if whole.failed:
        problems.append(f"an exact sweep fails: {whole.reasons}")
    cut = check_sweep("\n".join(text.splitlines()[:-2]) + "\n", grid, {})
    if (cut.attempted, cut.failed) != (6, 2):
        problems.append(
            f"truncated sweep counted {cut.failed} of {cut.attempted} failed, not 2 of 6"
        )

    pairs = [(2, 1), (3, 1)]
    lines = ["N=2 k=1: state=1e-16", "N=3 k=1: state=1e-16", "max deviation: 1e-16 (x)", "PASS: ok"]
    if check_oracle(0, "\n".join(lines), pairs, 3, 1e-10).failed:
        problems.append("a passing oracle run is counted as failed")
    lines[1] = "N=3 k=1: state=1e-9"
    if check_oracle(0, "\n".join(lines), pairs, 3, 1e-10).failed != 3:
        problems.append("an oracle deviation above tol is not counted as failed")
    return problems


def _xi_below_tau(row: Row, off: float) -> Row:
    # raise n2 until xi sits `off` below tau, keeping both identities exact
    n2 = math.sqrt((row.c1_sq - row.tau + off) / (row.n - 1))
    return Row(**{**row.__dict__, "n2": n2, "xi": row.c1_sq - (row.n - 1) * n2 * n2})
