"""Benchmark for dicketangle: four workloads, checked outputs, per-layer spans.

    python3 bench/run.py --workload readme-sweep --seed 1 --seconds 28 --trace 0

Run from anywhere inside a checkout; the package is imported from its src/.
Each pass of a workload runs in a fresh interpreter (bench/worker.py), as a
command-line user's run does, so caches filled during a pass stay inside its
time. Passes repeat until the next one would overrun --seconds (at least
MIN_PASSES of them). Timings are scaled to a steady host speed (PROBE_REF_S).
Every output is checked (bench/checks.py) against a 50-digit mpmath
reference (bench/reference.py) or a property the method must have.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics, the tracing overhead among
them. The last line of stdout is one JSON object; details go to stderr and
to bench/out/. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 4
# latency samples per (N, k) pair and pass: with MIN_PASSES passes every
# workload has at least 1000 samples, so the p99 has at least 10 beyond it
LATENCY_PER_PAIR = {"readme-sweep": 10, "large-n-sweep": 5, "oracle-n12": 11}
SCALAR_CALLS_PER_PAIR = 2
REF_SAMPLE = 24
# Timings are scaled by PROBE_REF_S / (median time of worker.SpeedProbe's
# loop around the timed region or call), so that they read as on a host
# where the loop takes PROBE_REF_S. The machine in README.md is shared, and
# its speed drifts by up to 2x over seconds; the probe tracks that drift,
# and the scaling removes most of it. Unscaled figures go to stderr and
# bench/out/.
PROBE_REF_S = 0.0002
NEAR_PROBES = 20
ORACLE_TOL = 1e-10
PASS_TIMEOUT_S = 150

LARGE_N = (1000, 2000)
LARGE_KS = (1, 2, 3, 4, 5) + tuple(range(25, 501, 25))


def a_grid(steps: int) -> list[float]:
    # same arithmetic as the CLI's grid over [0, 1]
    return [0.0 + i * 1.0 / (steps - 1) for i in range(steps)]


def sweep_points(ns, ks_of, steps):
    return [(n, k, a) for n in ns for k in ks_of(n) for a in a_grid(steps)]


def per_pair_sample(points, per_pair: int, rng: random.Random) -> list:
    """`per_pair` seeded points of each (N, k) pair, in seeded order.

    The mix of sizes is then the same for every seed.
    """
    pairs = {}
    for p in points:
        pairs.setdefault(p[:2], []).append(p)
    sample = [p for group in pairs.values() for p in rng.sample(group, per_pair)]
    rng.shuffle(sample)
    return sample


@dataclass(frozen=True)
class Plan:
    """What one workload runs, and which of its outputs meet the reference."""

    kind: str  # "sweep", "calls" or "oracle"
    argv: tuple  # CLI arguments for "sweep" and "oracle"
    points: list  # (N, k, a) computed by each pass, in output order
    latency_points: list  # one timed public call each, after the pass
    route: str  # "record": tangle_record; "dense": the oracle's dense route
    checked: list  # seeded subset of points checked against the reference
    accuracy_points: list  # fixed points for the accuracy metrics


def make_plan(workload: str, seed: int, csv_path: str) -> Plan:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "readme-sweep":
        points = sweep_points((10, 100), lambda n: range(1, n // 2 + 1), 101)
        argv = ("sweep", "--n", "10,100", "--k", "all", "--a-steps", "101", "--out", csv_path)
        accuracy = [(10, k, a) for k in range(1, 6) for a in (0.0, 0.3, 0.6, 0.9, 0.98, 1.0)]
        accuracy += [
            (100, k, a)
            for k in (1, 2, 3, 4, 10, 25, 50)
            for a in (0.0, 0.3, 0.6, 0.76, 0.83, 0.94, 1.0)
        ]
    elif workload == "large-n-sweep":
        points = sweep_points(LARGE_N, lambda n: LARGE_KS, 21)
        ks = ",".join(map(str, LARGE_KS))
        argv = ("sweep", "--n", "1000,2000", "--k", ks, "--a-steps", "21", "--out", csv_path)
        accuracy = [
            (n, k, a)
            for n in LARGE_N
            for k in (1, 3, 25, 225, 500)
            for a in (0.05, 0.35, 0.75, 0.9, 0.95, 1.0)
        ]
    elif workload == "scalar-points":
        pairs = [(n, k) for n in range(2, 65) for k in range(1, n // 2 + 1)]
        points = [(n, k, rng.randrange(1001) / 1000) for n, k in pairs * SCALAR_CALLS_PER_PAIR]
        rng.shuffle(points)
        accuracy = [
            (n, k, a)
            for n in (2, 3, 5, 8, 13, 21, 34, 55, 64)
            for k in sorted({1, min(2, n // 2), max(1, n // 4), n // 2})
            for a in (0.0, 0.5, 0.97)
        ]
        return Plan("calls", (), points, points, "record", rng.sample(points, REF_SAMPLE), accuracy)
    elif workload == "oracle-n12":
        points = sweep_points(range(2, 13), lambda n: range(1, n // 2 + 1), 11)
        argv = ("oracle", "--n-max", "12", "--a-steps", "11", "--tol", str(ORACLE_TOL))
        accuracy = [
            (n, k, a) for n in range(2, 13) for k in range(1, n // 2 + 1) for a in (0.3, 0.7)
        ]
        latency = per_pair_sample(points, LATENCY_PER_PAIR[workload], rng)
        return Plan("oracle", argv, points, latency, "dense", latency, accuracy)
    else:
        raise ValueError(workload)
    return Plan(
        "sweep",
        argv,
        points,
        per_pair_sample(points, LATENCY_PER_PAIR[workload], rng),
        "record",
        rng.sample(points, REF_SAMPLE),
        accuracy,
    )


WORKLOADS = ("readme-sweep", "large-n-sweep", "scalar-points", "oracle-n12")


def run_pass(plan: Plan, traced: bool, latency: bool, spans_path: str | None) -> dict:
    spec = {
        "src": str(SRC),
        "kind": plan.kind,
        "argv": list(plan.argv),
        "points": plan.points if plan.kind == "calls" else [],
        "latency_points": plan.latency_points if latency else [],
        "route": plan.route,
        "trace": traced,
        "spans_path": spans_path,
    }
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(spec),
        capture_output=True,
        text=True,
        timeout=PASS_TIMEOUT_S,
        cwd=str(ROOT),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_pass(plan: Plan, result: dict, refs: dict, csv_path: Path):
    """Tally of the pass's operations: workload points plus latency samples."""
    if plan.kind == "sweep":
        text = csv_path.read_text(encoding="utf-8") if csv_path.exists() else ""
        tally = checks.check_sweep(text, plan.points, refs["records"])
    elif plan.kind == "calls":
        rows = [checks.Row(*r) for r in result["rows"]]
        return checks.check_rows(rows, plan.points, refs["records"])
    else:
        pairs = sorted({(n, k) for n, k, _ in plan.points})
        tally = checks.check_oracle(
            result["exit_code"], result["stdout"], pairs, len(a_grid(11)), ORACLE_TOL
        )
    samples = result.get("latency_us") and result["rows"]
    if samples:
        if plan.route == "dense":
            tally.add(checks.check_dense(samples, refs["marginals"]))
        else:
            rows = [checks.Row(*r) for r in samples]
            tally.add(checks.check_rows(rows, plan.latency_points, refs["records"]))
    return tally


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def accuracy(plan: Plan, refs: dict) -> dict:
    """Errors of the package's public functions at the fixed reference points."""
    import dicketangle as dt

    err = {"tau": 0.0, "xi": 0.0, "elem": 0.0, "c1_sq": 0.0, "c2_sq": 0.0, "n2": 0.0}
    for point in plan.accuracy_points:
        ref = refs["accuracy"][point]
        rec = dt.tangle_record(dt.DickeParams(*point))
        err["tau"] = max(err["tau"], float(abs(rec.tau - ref.tau)))
        err["xi"] = max(err["xi"], float(abs(rec.xi - ref.xi)))
        for name in ("c1_sq", "c2_sq", "n2"):
            want = getattr(ref, name)
            if want != 0:
                err[name] = max(err[name], float(abs((getattr(rec, name) - want) / want)))
        marg = dt.two_qubit_marginal(dt.DickeParams(*point))
        for elem in "ABCDEF":
            diff = abs(getattr(marg, elem) - getattr(ref.marginal, elem))
            err["elem"] = max(err["elem"], float(diff))
    return err


def scale_timings(result: dict) -> None:
    """Add raw and scaled set-up, pass and latency times to a worker result.

    The set-up and the pass are scaled by the probes inside them, and each
    latency sample by the NEAR_PROBES probes on either side of it.
    """
    probes = result["probes"]

    def scale(window):
        return PROBE_REF_S / statistics.median(window or probes)

    result["setup_s"] = result["setup"]["s"]
    result["setup_scaled_s"] = result["setup_s"] * scale(result["setup"]["probes"])
    result["pass_s"] = result["pass"]["s"]
    result["pass_scaled_s"] = result["pass_s"] * scale(result["pass"]["probes"])
    result["latency_scaled_us"] = [
        x * scale(probes[max(0, j - NEAR_PROBES) : j + NEAR_PROBES])
        for x, j in zip(result.get("latency_us", []), result.get("latency_probe_index", []))
    ]


PASS_DETAILS = (
    "setup_s", "setup_scaled_s", "pass_s", "pass_scaled_s", "rss_mb", "traced", "csv_bytes"
)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "dicketangle" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'dicketangle'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    problems = checks.self_test()
    if problems:
        print("error: the output checks failed their self-test:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    csv_path = OUT / f"{args.workload}.csv"
    plan = make_plan(args.workload, args.seed, str(csv_path))
    refs = {
        "records": {p: reference.record(*p) for p in plan.checked},
        "marginals": {p: reference.marginal(*p) for p in plan.latency_points}
        if plan.route == "dense"
        else {},
        "accuracy": {p: reference.record(*p) for p in plan.accuracy_points},
    }

    passes = []
    spans_path = str(OUT / f"{args.workload}-spans.tsv") if args.trace else None
    t_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        csv_path.unlink(missing_ok=True)
        result = run_pass(
            plan, traced, latency=not args.trace, spans_path=spans_path if traced else None
        )
        if traced:
            spans_path = None  # keep the spans of the first traced pass only
        result["traced"] = traced
        result["csv_bytes"] = csv_path.stat().st_size if csv_path.exists() else 0
        result["tally"] = check_pass(plan, result, refs, csv_path)
        scale_timings(result)
        passes.append(result)
        # stop before the next pass (or traced pair) would overrun --seconds
        n, step = len(passes), 2 if args.trace else 1
        projected = (time.perf_counter() - t_start) * (n + step) / n
        if n >= MIN_PASSES and n % step == 0 and projected > args.seconds:
            break

    tally = checks.Tally()
    for p in passes:
        tally.add(p["tally"])
    err = accuracy(plan, refs)
    correct = err["tau"] <= checks.BUDGET and err["xi"] <= checks.BUDGET
    untraced = [p for p in passes if not p["traced"]]
    points_per_pass = len(plan.points)
    notes = [f"{len(untraced)} untraced passes of {points_per_pass} points"]

    if args.trace:
        traced = [p for p in passes if p["traced"]]
        overhead = statistics.median(p["pass_scaled_s"] for p in traced) / statistics.median(
            p["pass_scaled_s"] for p in untraced
        )
        metrics = {}
        for name in traced[0]["trace"]:
            metrics[f"{name}.calls"] = metric(
                statistics.median(p["trace"][name]["calls"] for p in traced), "count"
            )
            metrics[f"{name}.self_s"] = metric(
                statistics.median(p["trace"][name]["self_s"] for p in traced), "s"
            )
        metrics["cli.run_sweep.bytes"] = metric(
            statistics.median(p["csv_bytes"] for p in passes), "bytes"
        )
        metrics["marginals.elem_err_abs_max"] = metric(err["elem"], "abs")
        for name in ("c1_sq", "c2_sq", "n2"):
            metrics[f"measures.{name}_err_rel_max"] = metric(err[name], "rel")
        metrics["trace.overhead_pct"] = metric(100.0 * (overhead - 1.0), "%")
        notes.append(f"{len(traced)} traced passes; absent: {traced[0]['absent'] or 'none'}")
    else:
        latencies = [x for p in passes for x in p["latency_scaled_us"]]
        metrics = {
            "setup_s": metric(statistics.median(p["setup_scaled_s"] for p in passes), "s"),
            "points_per_s": metric(
                statistics.median(points_per_pass / p["pass_scaled_s"] for p in passes), "points/s"
            ),
            "call_us_p50": metric(quantile(latencies, 0.50), "us"),
            "call_us_p99": metric(quantile(latencies, 0.99), "us"),
            "peak_rss_mb": metric(statistics.median(p["rss_mb"] for p in passes), "MB"),
            "tau_err_abs_max": metric(err["tau"], "abs"),
            "xi_err_abs_max": metric(err["xi"], "abs"),
        }
        notes.append(f"{len(latencies)} latency samples ({plan.route} route)")
        raw = [x for p in passes for x in p["latency_us"]]
        notes.append(
            "unscaled: setup_s %.4g, points_per_s %.5g, call_us_p50 %.5g, call_us_p99 %.5g"
            % (
                statistics.median(p["setup_s"] for p in passes),
                statistics.median(points_per_pass / p["pass_s"] for p in passes),
                quantile(raw, 0.50),
                quantile(raw, 0.99),
            )
        )

    print(f"{args.workload} seed {args.seed}: " + "; ".join(notes), file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"  operations: {tally.attempted} attempted, {tally.failed} failed", file=sys.stderr)
    for why in tally.reasons:
        print(f"  failed: {why}", file=sys.stderr)
    summary = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    details = {
        **summary,
        "workload": args.workload,
        "seed": args.seed,
        "failures": tally.reasons,
        "passes": [
            {k: p[k] for k in PASS_DETAILS}
            for p in passes
        ],
    }
    details_path = OUT / f"{args.workload}-trace{args.trace}.json"
    details_path.write_text(json.dumps(details, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
