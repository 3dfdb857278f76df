"""Command-line front end: parameter sweeps, property checks, oracle cross-validation.

Subcommands:
    sweep   write a CSV of tangle records over an (N, k, a) grid
    check   verify the monogamy / ordering / monotonicity properties on a grid
    oracle  cross-validate the closed forms against the brute-force oracle

Exit codes: 0 = all checks pass, 1 = property violation, 2 = usage/config error.
Diagnostics go to stderr; stdout (or --out) carries the report or CSV only.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack
from itertools import combinations

import numpy as np

from . import marginals, measures, oracle
from .dicke import DickeParams, amplitude_rows, check_a_values, check_int, check_n_k
from .errors import CapExceededError, DicketangleError, InvalidParamsError
from .oracle import Spinor

_COLUMNS = "N,k,a,c1_sq,c2_sq,tau,n2,xi"

# spot-check sizes for the monogamy/ordering properties beyond the dense grid
_SPOT_N = (50, 100)
_SPOT_K_MAX = 5

_ORACLE_N_MAX = 12

# rows |00>, |psi+>, |11> (the triplet basis T), then the singlet s = |psi->
_R = np.sqrt(0.5)
_BELL = np.array([[1, 0, 0, 0], [0, _R, _R, 0], [0, 0, 0, 1], [0, _R, -_R, 0]], dtype=float)


def _int_at_least(value, low: int, name: str) -> int:
    value = check_int(value, name)
    if value < low:
        raise InvalidParamsError(f"{name} must be >= {low}, got {value}")
    return value


def _a_grid(a_min: float, a_max: float, a_steps: int) -> list[float]:
    """a_steps evenly spaced overlaps from a_min to a_max, both included."""
    a_steps = _int_at_least(a_steps, 2, "a_steps")
    a_min, a_max = check_a_values([a_min, a_max]).tolist()
    if not a_min <= a_max:
        raise InvalidParamsError(f"need a_min <= a_max, got [{a_min}, {a_max}]")
    # the last point can round past a_max or short of it, so it is a_max itself,
    # and min() keeps the rest inside [a_min, a_max]
    grid = [min(a_min + i * (a_max - a_min) / (a_steps - 1), a_max) for i in range(a_steps)]
    grid[-1] = a_max
    return grid


def _check_tol(tol: float) -> float:
    # a nan tol makes every margin nan, and nan < 0 is false, so it would pass everything
    try:
        if np.isfinite(float(tol)) and float(tol) >= 0.0:
            return float(tol)
    except (TypeError, ValueError):
        pass
    raise InvalidParamsError(f"tol must be a finite number >= 0, got {tol}")


def _fmt(x: float, precision: int) -> str:
    # x + 0.0 canonicalizes -0.0 so equal values always render identically
    return format(x + 0.0, f".{precision}g")


def _tangle_rows(n: int, k: int, grid: list[float]):
    """Yield (a, row) for each a of grid: row is (c1_sq, c2_sq, tau, n2, xi) or its error.

    One tangle_table call covers the whole (N, k). If it fails, every a is
    re-run through tangle_record, so that only the rows that fail are lost;
    each of those yields its DicketangleError in place of the row.
    """
    try:
        table = measures.tangle_table(n, k, grid)
    except DicketangleError:
        for a in grid:
            try:
                rec = measures.tangle_record(DickeParams(n, k, a))
            except DicketangleError as exc:
                yield a, exc
            else:
                yield a, (rec.c1_sq, rec.c2_sq, rec.tau, rec.n2, rec.xi)
        return
    yield from zip(grid, zip(*(col.tolist() for col in table)))


def run_sweep(n_values, k_values, a_min=0.0, a_max=1.0, a_steps=101, output_path="-",
              precision=12, out=None, err=None) -> int:
    """Write the CSV of an (N, k, a) grid, one (N, k) batch at a time; returns the exit code.

    n_values are the N (integers >= 2) and k_values the k (integers), or None
    for 1..N//2 at each N; a pair with k outside 1..N//2 is skipped with a
    warning. The a-grid has a_steps >= 2 evenly spaced points from a_min to
    a_max, with 0 <= a_min <= a_max <= 1. Rows go to output_path, or to out
    (default stdout) if it is "-", with `precision` (>= 1) significant
    digits; warnings go to err (default stderr). An invalid argument raises
    InvalidParamsError. Nothing is written, and no output file is created,
    until the first row has been computed, so a sweep in which every row
    fails writes nothing.
    """
    err = err if err is not None else sys.stderr
    if not n_values:
        raise InvalidParamsError("need at least one N value")
    # k = 1 is valid at every N >= 2, so this checks N alone
    ns = sorted({check_n_k(n, 1)[0] for n in n_values})
    if k_values is not None:
        if not k_values:
            raise InvalidParamsError("explicit k list must be nonempty")
        k_values = sorted({check_int(k, "k") for k in k_values})
    grid = _a_grid(a_min, a_max, a_steps)
    precision = _int_at_least(precision, 1, "precision")

    pairs = []
    for n in ns:
        for k in range(1, n // 2 + 1) if k_values is None else k_values:
            if not 1 <= k <= n // 2:
                print(f"warning: skipping invalid pair N={n}, k={k}", file=err)
                continue
            pairs.append((n, k))
    if not pairs:
        print("error: sweep grid is empty after filtering", file=err)
        return 2

    failures = 0
    with ExitStack() as stack:
        stream = None
        for n, k in pairs:
            lines = []
            for a, row in _tangle_rows(n, k, grid):
                if isinstance(row, DicketangleError):
                    failures += 1
                    print(f"warning: skipping row (N={n}, k={k}, a={a:g}): {row}", file=err)
                    continue
                fields = [str(n), str(k)] + [_fmt(x, precision) for x in (a, *row)]
                lines.append(",".join(fields) + "\n")
            if not lines:
                continue
            if stream is None:
                if output_path == "-":
                    stream = out if out is not None else sys.stdout
                else:
                    stream = stack.enter_context(
                        open(output_path, "w", encoding="utf-8", newline="\n")
                    )
                stream.write(_COLUMNS + "\n")
            stream.write("".join(lines))
    if failures == len(pairs) * len(grid):
        print("error: every sweep row failed", file=err)
        return 2
    return 0


class _PropertyReport:
    """Collects worst offenders per named property and prints PASS/FAIL lines."""

    def __init__(self):
        self.worst = {}

    def observe(self, name: str, margins, where):
        """Keep the first minimum of `margins` (negative = violation), located by `where(i)`.

        It replaces the stored worst only if strictly smaller, so the tightest
        point observed first is the one reported.
        """
        i = int(np.argmin(margins))
        margin = float(margins[i])
        cur = self.worst.get(name)
        if cur is None or margin < cur[0]:
            self.worst[name] = (margin, where(i))

    def render(self, stream) -> int:
        bad = 0
        for name in sorted(self.worst):
            margin, where = self.worst[name]
            if margin < 0.0:
                bad += 1
                print(f"FAIL {name}: violated by {-margin:.3e} at {where}", file=stream)
            else:
                print(f"PASS {name}: margin {margin:.3e} (tightest at {where})", file=stream)
        return 0 if bad == 0 else 1


def _check_pairs(n_max: int):
    pairs = [(n, k) for n in range(3, n_max + 1) for k in range(1, n // 2 + 1)]
    for n in _SPOT_N:
        if n > n_max:
            pairs.extend((n, k) for k in range(1, min(_SPOT_K_MAX, n // 2) + 1))
    return pairs


def run_check(n_max: int, a_steps: int, tol: float, out=None) -> int:
    """Verify the measures-module properties over a dense grid plus spot checks.

    Each property is an array expression over the tangle_table columns of
    one (N, k), or of neighbouring k or N; a failing call raises its
    DicketangleError. Returns 1 if a property is violated by more than tol.
    """
    out = out if out is not None else sys.stdout
    n_max = _int_at_least(n_max, 3, "n_max")
    grid = _a_grid(0.0, 1.0, a_steps)
    tol = _check_tol(tol)
    taus = {}
    report = _PropertyReport()

    for n, k in _check_pairs(n_max):
        table = measures.tangle_table(n, k, grid)
        tau, xi = table.tau, table.xi
        taus[(n, k)] = tau

        def at(i):
            return f"(N={n}, k={k}, a={grid[i]:.6g})"

        report.observe("monogamy-tau", tau + tol, at)
        report.observe("monogamy-xi", xi + tol, at)
        report.observe("ordering-xi-ge-tau", xi - tau + tol, at)
        if k == 1:
            report.observe("w-class-saturation", tol - np.abs(tau), at)
        # the grid ends at exactly 1.0, and no other point equals 1.0
        report.observe("vanishing-at-a-1", tol - np.abs(tau[-1:]), lambda _: at(-1))
        if k >= 2:
            report.observe(
                "a-monotonicity",
                tau[:-1] - tau[1:] + tol,
                lambda i: f"(N={n}, k={k}, a={grid[i]:.6g}->{grid[i + 1]:.6g})",
            )
        report.observe("endpoint-max-at-a-0", tau[0] - tau + tol, at)

    by_n = sorted({n for n, _ in taus})
    for n in by_n:
        ks = sorted(k for m, k in taus if m == n)
        for k1, k2 in zip(ks, ks[1:]):
            report.observe(
                "k-ordering",
                taus[(n, k2)][:-1] - taus[(n, k1)][:-1] + tol,
                lambda i: f"(N={n}, k={k1}->{k2}, a={grid[i]:.6g})",
            )
    by_k = sorted({k for _, k in taus})
    for k in by_k:
        ns = sorted(n for n, m in taus if m == k)
        for n1, n2 in zip(ns, ns[1:]):
            if n1 == 2 * k:
                # tau genuinely rises when leaving the half-filled point
                # (e.g. tau(4,2,0) = 2/3 < tau(5,2,0) ~ 0.7028), so the
                # decay-with-N property starts at N = 2k + 1
                continue
            report.observe(
                "n-decay",
                taus[(n1, k)] - taus[(n2, k)] + tol,
                lambda i: f"(N={n1}->{n2}, k={k}, a={grid[i]:.6g})",
            )

    return report.render(out)


def _worst(devs: dict, name: str, diff) -> None:
    devs[name] = max(devs[name], float(np.max(np.abs(diff))))


def oracle_deviations(n: int, k: int, grid) -> dict[str, float]:
    """Largest deviation over `grid` between the closed forms and the dense oracle, for one (N, k).

    Keys, in report order:
        state              expand_state against symmetrize_two_spinors
        marginal           the dense two-qubit marginal rho2 against marginal_matrix, and
                           T rho2 T^T against the R of triplet_blocks
        partial-transpose  T S T^T, s^T S s and T S s of the axis-swapped dense marginal S
                           against the P and D - C of triplet_blocks and against 0
        pair-choice        the dense marginal of every qubit pair against that of (0, 1)
        rho1               the dense one-qubit marginal against single_qubit_marginal
                           and against the dense two-qubit marginal traced over qubit 2
        measures           C2, N2 and C1 of one tangle_table call (the numbers sweep
                           prints) against concurrence_two_qubit of the dense marginal,
                           the trace norm of its axis-swapped partial transpose minus 1,
                           and one_vs_rest of the dense one-qubit marginal

    A..F are evaluated once for the whole grid (marginal_elements); each point's
    TwoQubitMarginal is built from its row, which is bit for bit what
    two_qubit_marginal returns, and its triplet blocks from the same columns.
    """
    table = measures.tangle_table(n, k, grid)
    engine = np.stack([np.sqrt(table.c2_sq), table.n2, np.sqrt(table.c1_sq)], axis=1)
    elements = marginals.marginal_elements(n, amplitude_rows(n, k, grid))
    rows = zip(*(col.tolist() for col in elements))
    eps1 = Spinor(1.0, 0.0)
    devs = dict.fromkeys(
        ("state", "marginal", "partial-transpose", "pair-choice", "rho1", "measures"), 0.0
    )
    for a, engine_row, row, R, P, singlet in zip(
        grid, engine, rows, *marginals.triplet_blocks(*elements)
    ):
        params = DickeParams(n, k, a)
        psi = oracle.expand_state(params)
        sym = oracle.symmetrize_two_spinors(n, k, eps1, Spinor(a, params.b))
        _worst(devs, "state", psi.amplitudes - sym.amplitudes)

        brute = oracle.partial_trace_to_two(psi)
        rho2 = brute.to_array()
        marg = marginals.TwoQubitMarginal(params, *row)
        _worst(devs, "marginal", rho2 - marginals.marginal_matrix(marg).to_array())
        _worst(devs, "marginal", (_BELL @ rho2 @ _BELL.T)[:3, :3] - R)
        swapped = rho2.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        rotated = _BELL @ swapped @ _BELL.T
        _worst(devs, "partial-transpose", rotated[:3, :3] - P)
        _worst(devs, "partial-transpose", rotated[3] - [0.0, 0.0, 0.0, singlet])
        pairs = combinations(range(n), 2)
        others = [oracle.partial_trace_to_two(psi, pair).entries for pair in pairs]
        _worst(devs, "pair-choice", np.subtract(others, brute.entries))

        rho1 = oracle.partial_trace_to_one(psi)
        dense1 = rho1.to_array()
        _worst(devs, "rho1", dense1 - marginals.single_qubit_marginal(marg).rho.to_array())
        _worst(devs, "rho1", np.trace(rho2.reshape(2, 2, 2, 2), axis1=1, axis2=3) - dense1)

        dense = (
            measures.concurrence_two_qubit(brute),
            max(0.0, np.abs(np.linalg.eigvalsh(swapped)).sum() - 1.0),
            measures.one_vs_rest(marginals.SingleQubitMarginal(params, rho1)),
        )
        _worst(devs, "measures", engine_row - dense)
    return devs


def run_oracle(n_max: int, a_steps: int, tol: float, out=None) -> int:
    """Cross-validate the closed forms and the engine against the dense oracle.

    Prints one line of oracle_deviations per (N, k) with N = 2..n_max, then
    the largest deviation and PASS or FAIL; returns 1 if any deviation
    exceeds tol. n_max is capped at 12, since the pair-choice check traces
    every qubit pair of a 2^N state.
    """
    out = out if out is not None else sys.stdout
    n_max = _int_at_least(n_max, 2, "n_max")
    if n_max > _ORACLE_N_MAX:
        raise CapExceededError(f"oracle command is capped at n_max <= {_ORACLE_N_MAX}, got {n_max}")
    grid = _a_grid(0.0, 1.0, a_steps)
    tol = _check_tol(tol)
    worst = (-1.0, "")
    failed = False
    for n in range(2, n_max + 1):
        for k in range(1, n // 2 + 1):
            devs = oracle_deviations(n, k, grid)
            print(
                f"N={n} k={k}: " + " ".join(f"{name}={dev:.3e}" for name, dev in devs.items()),
                file=out,
            )
            for name, dev in devs.items():
                if dev > worst[0]:
                    worst = (dev, f"{name} at N={n}, k={k}")
                if dev > tol:
                    failed = True
    print(f"max deviation: {worst[0]:.3e} ({worst[1]})", file=out)
    if failed:
        print(f"FAIL: max deviation exceeds tol={tol:g}", file=out)
        return 1
    print(f"PASS: all deviations below tol={tol:g}", file=out)
    return 0


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")


def _k_list(text: str):
    if text.strip().lower() == "all":
        return None
    return _int_list(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicketangle",
        description="Tangles and monogamy checks for one-parameter Dicke-class states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="write tangle records over an (N, k, a) grid as CSV")
    sweep.add_argument("--n", type=_int_list, default=(10, 100), metavar="LIST",
                       help="comma-separated N values (default 10,100)")
    sweep.add_argument("--k", type=_k_list, default=None, metavar="LIST|all",
                       help="comma-separated k values, or 'all' for 1..N//2 (default all)")
    sweep.add_argument("--a-min", type=float, default=0.0)
    sweep.add_argument("--a-max", type=float, default=1.0)
    sweep.add_argument("--a-steps", type=int, default=101)
    sweep.add_argument("--out", default="-", help="output path, '-' for stdout (default)")
    sweep.add_argument("--precision", type=int, default=12,
                       help="significant digits in the CSV (default 12)")

    check = sub.add_parser("check", help="verify monogamy/ordering/monotonicity properties")
    check.add_argument("--n-max", type=int, default=12,
                       help="dense grid covers N = 3..n_max (default 12)")
    check.add_argument("--a-steps", type=int, default=11)
    check.add_argument("--tol", type=float, default=1e-9)

    orc = sub.add_parser("oracle", help="cross-validate closed forms against the dense oracle")
    orc.add_argument("--n-max", type=int, default=12, help="grid covers N = 2..n_max (default 12)")
    orc.add_argument("--a-steps", type=int, default=11)
    orc.add_argument("--tol", type=float, default=1e-10)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            return run_sweep(
                args.n, args.k, args.a_min, args.a_max, args.a_steps, args.out, args.precision
            )
        if args.command == "check":
            return run_check(args.n_max, args.a_steps, args.tol)
        return run_oracle(args.n_max, args.a_steps, args.tol)
    except (DicketangleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

if __name__ == "__main__":
    raise SystemExit(main())
