"""Command-line front end: parameter sweeps, property checks, oracle cross-validation.

Subcommands:
    sweep   write a CSV of tangle records over an (N, k, a) grid
    check   verify the monogamy / ordering / monotonicity properties on a grid
    oracle  cross-validate the closed forms against the brute-force oracle

Exit codes: 0 = all checks pass, 1 = property violation, 2 = usage/config error
(or a grid too large for memory, or a numerical abort).
Diagnostics go to stderr; stdout (or --out) carries the report or CSV only.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import ExitStack

import numpy as np

from . import marginals, measures, oracle
from .dicke import (
    DickeParams, amplitude_rows, check_a_values, check_int, check_n_k, check_number, int_text,
)
from .errors import CapExceededError, DicketangleError, InvalidParamsError
from .oracle import Spinor

_COLUMNS = "N,k,a,c1_sq,c2_sq,tau,n2,xi"

# spot-check sizes for the monogamy/ordering properties beyond the dense grid
_SPOT_N = (50, 100)
_SPOT_K_MAX = 5

_ORACLE_N_MAX = 12
_CHECK_N_MAX = 900
_CHECK_A_STEPS = 11
# len(_check_pairs(_CHECK_N_MAX)) * _CHECK_A_STEPS, the rows of n_max = 900 at the default
# a-grid: about a minute of check
_CHECK_ROWS_MAX = 2_227_489

# a sweep chunk holds whole (N, k) pairs, at most this many rows unless one pair has more
_CHUNK_ROWS = 2**13

# the largest precision that % formatting accepts
_PRECISION_MAX = 2**31 - 1

# a double's exact decimal value has at most 767 significant digits, so %.<p>g prints the
# same text for every p >= 767; % formatting reserves about p bytes for each value
_DIGITS_MAX = 767

# the oracle stacks the 2^N amplitudes of at most this many a-values at a time
_ORACLE_ROWS = 128

# T: the triplet basis |00>, |psi+>, |11>, then the singlet |psi->
_R = np.sqrt(0.5)
_BELL = np.array([[1, 0, 0, 0], [0, _R, _R, 0], [0, 0, 0, 1], [0, _R, -_R, 0]], dtype=float)


def _int_at_least(value, low: int, name: str) -> int:
    value = check_int(value, name)
    if value < low:
        raise InvalidParamsError(f"{name} must be >= {low}, got {int_text(value)}")
    return value


def _a_grid(a_min: float, a_max: float, a_steps: int) -> list[float]:
    """a_steps evenly spaced overlaps from a_min to a_max, both included."""
    a_steps = _int_at_least(a_steps, 2, "a_steps")
    a_min, a_max = check_a_values(
        [check_number(a_min, "a_min"), check_number(a_max, "a_max")]
    ).tolist()
    if not a_min <= a_max:
        raise InvalidParamsError(f"need a_min <= a_max, got [{a_min}, {a_max}]")
    # the last point can round past a_max or short of it, so it is a_max itself,
    # and min() keeps the rest inside [a_min, a_max]
    grid = [min(a_min + i * (a_max - a_min) / (a_steps - 1), a_max) for i in range(a_steps)]
    grid[-1] = a_max
    return grid


def _validated(command: str, n_max, low: int, cap: int, a_steps, tol):
    """check's and oracle's arguments: n_max in low..cap, a_steps >= 2 and tol."""
    n_max = _int_at_least(n_max, low, "n_max")
    if n_max > cap:
        raise CapExceededError(
            f"{command} command is capped at n_max <= {cap}, got {int_text(n_max)}"
        )
    a_steps = _int_at_least(a_steps, 2, "a_steps")
    value = check_number(tol, "tol")
    # a nan tol makes every margin nan, and nan < 0 is false, so it would pass everything
    if not (math.isfinite(value) and value >= 0.0):
        raise InvalidParamsError(f"tol must be a finite number >= 0, got {tol}")
    return n_max, a_steps, value


def _chunks(n_pairs: int, m: int):
    """The slices of a list of n_pairs pairs, m rows each, that one engine call each covers."""
    per_chunk = max(1, _CHUNK_ROWS // m)
    return (slice(start, start + per_chunk) for start in range(0, n_pairs, per_chunk))


def _chunk_tangles(pairs: list, grid: list[float]) -> measures.TangleTable:
    """measures.tangle_grid of one chunk; an abort is raised again as the same class, with
    the chunk's first and last (N, k) added to its message."""
    try:
        return measures.tangle_grid(pairs, grid)
    except DicketangleError as exc:
        (n0, k0), (n1, k1) = pairs[0], pairs[-1]
        raise type(exc)(f"{exc} (chunk from N={n0}, k={k0} to N={n1}, k={k1})") from exc


def _chunk_text(pairs: list, grid: list[float], precision: int) -> str:
    """The CSV lines of every (N, k) in pairs at every a of grid.

    One tangle_grid call covers the whole chunk. Each a of grid is formatted
    once, into a line template that holds the five computed columns as
    %-fields; each pair's "N,k," prefixes its copies of those lines, and one %
    fills the chunk's template from its values in row order. Every value gets
    + 0.0, which turns -0.0 into 0.0, so that equal values always render
    identically.
    """
    table = _chunk_tangles(pairs, grid)
    field = f"%.{min(precision, _DIGITS_MAX)}g"
    lines = [f"{field % (a + 0.0)},{field},{field},{field},{field},{field}\n" for a in grid]
    # each line ends in "\n", so joining on a pair's prefix starts its every line with it
    template = "".join([prefix + prefix.join(lines) for prefix in (f"{n},{k}," for n, k in pairs)])
    return template % tuple((np.column_stack(table) + 0.0).ravel().tolist())


def run_sweep(n_values, k_values, a_min=0.0, a_max=1.0, a_steps=101, output_path="-",
              precision=12) -> int:
    """Write the CSV of an (N, k, a) grid, one chunk of (N, k) pairs at a time; returns the exit code.

    n_values are the N (an iterable of integers >= 2) and k_values the k (an
    iterable of integers), or None for 1..N//2 at each N; a pair with k outside
    1..N//2 is skipped with a warning. The a-grid has a_steps >= 2 evenly
    spaced points from a_min to a_max, with 0 <= a_min <= a_max <= 1. Rows go
    to output_path, or to sys.stdout if it is "-", with `precision` (1 to
    2**31 - 1) significant digits; warnings go to sys.stderr. Both streams are
    looked up when written to, so contextlib.redirect_stdout and
    redirect_stderr capture them. An invalid argument raises
    InvalidParamsError. An engine abort in a chunk raises its
    DicketangleError, naming the chunk; the rows of earlier chunks stay
    written. No output file is created until the first chunk's rows have
    been computed, so a sweep whose first chunk fails writes nothing.
    """
    try:
        n_values = tuple(n_values)
        k_values = None if k_values is None else tuple(k_values)
    except TypeError:
        raise InvalidParamsError("n_values and k_values must be iterables of integers") from None
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
    if precision > _PRECISION_MAX:
        raise InvalidParamsError(
            f"precision must be <= {_PRECISION_MAX}, got {int_text(precision)}"
        )

    pairs = []
    for n in ns:
        for k in range(1, n // 2 + 1) if k_values is None else k_values:
            if not 1 <= k <= n // 2:
                print(f"warning: skipping invalid pair N={n}, k={int_text(k)}", file=sys.stderr)
                continue
            pairs.append((n, k))
    if not pairs:
        print("error: sweep grid is empty after filtering", file=sys.stderr)
        return 2

    with ExitStack() as stack:
        stream = None
        for chunk in _chunks(len(pairs), len(grid)):
            text = _chunk_text(pairs[chunk], grid, precision)
            if stream is None:
                if output_path == "-":
                    stream = sys.stdout
                else:
                    stream = stack.enter_context(
                        open(output_path, "w", encoding="utf-8", newline="\n")
                    )
                stream.write(_COLUMNS + "\n")
            stream.write(text)
    return 0


def _check_pairs(n_max: int):
    pairs = [(n, k) for n in range(3, n_max + 1) for k in range(1, n // 2 + 1)]
    for n in _SPOT_N:
        if n > n_max:
            pairs.extend((n, k) for k in range(1, min(_SPOT_K_MAX, n // 2) + 1))
    return pairs


def _span(lo, hi, spec: str = "") -> str:
    """lo, or lo->hi where the two differ, each formatted by spec."""
    return format(lo, spec) if lo == hi else f"{lo:{spec}}->{hi:{spec}}"


def _properties(tau, xi, n, k, grid, tol):
    """Yield each property's name and (rows, a) margins (negative = violated), one at a time,
    with the pairs lo, hi and the overlaps a_lo, a_hi that its rows and columns compare."""
    rows = np.arange(len(tau))
    each = rows, rows, grid, grid
    yield "monogamy-tau", tau + tol, *each
    yield "monogamy-xi", xi + tol, *each
    yield "ordering-xi-ge-tau", xi - tau + tol, *each
    w = rows[k == 1]
    yield "w-class-saturation", tol - np.abs(tau[w]), w, w, grid, grid
    # the grid ends at exactly 1.0, and no other point equals 1.0
    yield "vanishing-at-a-1", tol - np.abs(tau[:, -1:]), rows, rows, grid[-1:], grid[-1:]
    many = rows[k >= 2]
    yield "a-monotonicity", tau[many, :-1] - tau[many, 1:] + tol, many, many, grid[:-1], grid[1:]
    yield "endpoint-max-at-a-0", tau[:, :1] - tau + tol, *each
    # neighbouring k are consecutive rows with equal N
    lo = rows[:-1][n[:-1] == n[1:]]
    yield "k-ordering", tau[lo + 1, :-1] - tau[lo, :-1] + tol, lo, lo + 1, grid[:-1], grid[:-1]
    by_k = np.lexsort((n, k))
    lo, hi = by_k[:-1], by_k[1:]
    # neighbouring N are consecutive rows in the order of k, then N, with equal k; tau
    # genuinely rises when leaving the half-filled point (e.g. tau(4,2,0) = 2/3 <
    # tau(5,2,0) ~ 0.7028), so the decay-with-N property starts at N = 2k + 1
    keep = (k[lo] == k[hi]) & (n[lo] != 2 * k[lo])
    yield "n-decay", tau[lo[keep]] - tau[hi[keep]] + tol, lo[keep], hi[keep], grid, grid


def run_check(n_max: int, a_steps: int, tol: float) -> int:
    """Verify the measures-module properties over a dense grid plus spot checks.

    tau and xi come from one tangle_grid call per chunk of pairs, as in
    run_sweep, and each property is one array expression over them; a failing
    call raises its DicketangleError, naming the chunk. Returns 1 if a
    property is violated by more than tol or its margin is NaN. n_max is
    capped at 900, and the rows (pairs times a_steps) at the 2,227,489 that
    n_max = 900 has with the default grid (about a minute).
    """
    n_max, a_steps, tol = _validated("check", n_max, 3, _CHECK_N_MAX, a_steps, tol)
    pairs = _check_pairs(n_max)
    rows = len(pairs) * a_steps
    if rows > _CHECK_ROWS_MAX:
        raise CapExceededError(
            f"check command is capped at {_CHECK_ROWS_MAX} (pair, a) rows, got {int_text(rows)}"
        )
    grid = _a_grid(0.0, 1.0, a_steps)
    m = len(grid)
    tau, xi = np.empty((len(pairs), m)), np.empty((len(pairs), m))
    for chunk in _chunks(len(pairs), m):
        table = _chunk_tangles(pairs[chunk], grid)
        tau[chunk], xi[chunk] = table.tau.reshape(-1, m), table.xi.reshape(-1, m)

    n, k = np.array(pairs).T
    lines = {}
    for name, margins, lo, hi, a_lo, a_hi in _properties(tau, xi, n, k, grid, tol):
        # the first smallest entry in the order (pair, then a) is the first tightest point
        r, c = np.unravel_index(np.argmin(margins), margins.shape)
        margin = float(margins[r, c])
        where = (
            f"(N={_span(n[lo[r]], n[hi[r]])}, k={_span(k[lo[r]], k[hi[r]])}, "
            f"a={_span(a_lo[c], a_hi[c], '.6g')})"
        )
        if not margin >= 0.0:
            lines[name] = f"FAIL {name}: violated by {-margin:.3e} at {where}"
        else:
            lines[name] = f"PASS {name}: margin {margin:.3e} (tightest at {where})"
        del margins  # only one property's margins exist at a time
    print("\n".join(lines[name] for name in sorted(lines)))
    return 1 if any(line.startswith("FAIL") for line in lines.values()) else 0


def _largest(*diffs) -> float:
    """The largest modulus over every entry of diffs; a NaN anywhere makes it NaN."""
    return float(np.maximum.reduce([np.maximum.reduce(np.abs(d), axis=None) for d in diffs]))


def _off_class(psi: np.ndarray, by_class: np.ndarray) -> float:
    """pair-choice= of rows (m, 2^N): max |psi[x] - psi[y]|, y = by_class[x], the 0..01..1 of
    x's Hamming weight."""
    off = psi[:, by_class]
    off -= psi
    return _largest(off)


def oracle_deviations(n: int, k: int, grid) -> dict[str, float]:
    """Largest deviation over `grid` between the closed forms and the dense oracle, for one (N, k).

    Keys, in report order:
        state              expand_state against symmetrized_states, and each row of
                           amplitude_rows against the dense state's Dicke-basis
                           amplitudes sqrt(binom(N, r)) psi[2^r - 1], r = 0..k
        marginal           the dense two-qubit marginal rho2 against the engine's 4x4,
                           laid out from its A..F by marginals._pair_form
        partial-transpose  T S T^T of the axis-swapped dense marginal S against
                           blockdiag(P, D - C), the partial-transpose blocks of triplet_blocks
        pair-choice        each dense amplitude against that of the bitstring 0..01..1 of its
                           Hamming weight: exchange symmetry, as permutations reach every
                           bitstring of a weight, so every qubit pair has the marginal of (0, 1)
        rho1               the dense one-qubit marginal against rho_1 of triplet_blocks,
                           the matrix the engine's C1 is computed from, and against rho2
                           traced over qubit 2
        measures           C2, N2 and C1 of one tangle_table call (the numbers sweep
                           prints) against concurrence_stack of the dense marginals,
                           the trace norm of its axis-swapped partial transpose minus 1,
                           and one_vs_rest_stack of the dense one-qubit marginals

    T is _BELL. Everything runs per slice of at most _ORACLE_ROWS points: expand_states
    gives their stacked 2^N amplitudes, partial_traces their dense rho2 and rho1, and
    symmetrized_states the states to compare with. At each slice's first a the public
    one-point route, expand_state and both partial traces, runs too; its difference from
    that slice's first rows, 0 when they agree bit for bit, counts in state=, marginal= and
    rho1=. The dense marginals of all slices are stacked, and concurrence_stack,
    one_vs_rest_stack and the comparisons with the engine's arrays run once per (N, k).
    A NaN makes its key NaN.
    """
    table = measures.tangle_table(n, k, grid)
    beta = amplitude_rows(n, k, grid)
    elements = marginals.marginal_elements(n, beta)
    blocks, singlet, engine_rho1 = marginals.triplet_blocks(*elements)
    # the bitstring 0..01..1 of weight r, and the norm sqrt(binom(N, r)) of its Dicke state
    canonical = (1 << np.arange(n + 1)) - 1
    by_class = canonical[oracle._hamming_weights(n)]
    dicke_norm = np.sqrt([math.comb(n, r) for r in range(k + 1)])
    up = Spinor(1.0, 0.0)
    state, pair_choice, rho2, rho1, public2, public1 = [], [], [], [], [], []
    for start in range(0, len(grid), _ORACLE_ROWS):
        part = grid[start:start + _ORACLE_ROWS]
        psi = oracle.expand_states(n, k, part)
        two, one = oracle.partial_traces(psi, 4), oracle.partial_traces(psi, 2)
        rho2.append(two)
        rho1.append(one)
        # the public one-point route at the slice's first a, against the first stacked rows
        dense = oracle.expand_state(DickeParams(n, k, part[0]))
        public2.append(oracle.partial_trace_to_two(dense).to_array() - two[0])
        public1.append(oracle.partial_trace_to_one(dense).to_array() - one[0])
        # the symmetrized states less the dense ones, in place
        eps2 = [Spinor(a, DickeParams(n, k, a).b) for a in part]
        sym = oracle.symmetrized_states(n, k, up, eps2)
        sym -= psi
        dicke = dicke_norm * psi[:, canonical[:k + 1]] - beta[start:start + len(part)]
        state.append(_largest(sym, dense.amplitudes - psi[0], dicke))
        pair_choice.append(_off_class(psi, by_class))

    rho2, rho1 = np.concatenate(rho2), np.concatenate(rho1)
    swapped = rho2.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)
    c2, c1 = measures.concurrence_stack(rho2), measures.one_vs_rest_stack(rho1)
    n2 = np.maximum(0.0, np.abs(marginals._eig(swapped)).sum(axis=1) - 1.0)
    engine = np.stack((np.sqrt(table.c2_sq), table.n2, np.sqrt(table.c1_sq)))
    traced = np.trace(rho2.reshape(-1, 2, 2, 2, 2), axis1=2, axis2=4)
    engine_swapped = np.zeros((len(rho2), 4, 4))
    engine_swapped[:, :3, :3], engine_swapped[:, 3, 3] = blocks[:, 1], singlet
    return {
        "state": _largest(state),
        "marginal": _largest(rho2 - marginals._pair_form(*elements), *public2),
        "partial-transpose": _largest(_BELL @ swapped @ _BELL.T - engine_swapped),
        "pair-choice": _largest(pair_choice),
        "rho1": _largest(rho1 - engine_rho1, traced - rho1, *public1),
        "measures": _largest(engine - (c2, n2, c1)),
    }


def run_oracle(n_max: int, a_steps: int, tol: float) -> int:
    """Cross-validate the closed forms and the engine against the dense oracle.

    Prints one line of oracle_deviations per (N, k) with N = 2..n_max, then
    the largest deviation and PASS or FAIL; returns 1 if any deviation
    exceeds tol or is NaN. n_max is capped at 12, since each point expands a 2^N state.
    """
    n_max, a_steps, tol = _validated("oracle", n_max, 2, _ORACLE_N_MAX, a_steps, tol)
    grid = _a_grid(0.0, 1.0, a_steps)
    devs = []
    for n in range(2, n_max + 1):
        for k in range(1, n // 2 + 1):
            pair = oracle_deviations(n, k, grid)
            print(f"N={n} k={k}:", *(f"{name}={dev:.3e}" for name, dev in pair.items()))
            devs += ((dev, f"{name} at N={n}, k={k}") for name, dev in pair.items())
    # the first NaN deviation, else the first largest; a NaN is not <= tol, so it fails
    worst, where = max(devs, key=lambda item: (math.isnan(item[0]), item[0]))
    print(f"max deviation: {worst:.3e} ({where})")
    if not worst <= tol:
        print(f"FAIL: max deviation exceeds tol={tol:g}")
        return 1
    print(f"PASS: all deviations below tol={tol:g}")
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
    check.add_argument("--a-steps", type=int, default=_CHECK_A_STEPS)
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
    except (DicketangleError, OSError, MemoryError) as exc:
        # a bare MemoryError carries no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2

if __name__ == "__main__":
    raise SystemExit(main())
