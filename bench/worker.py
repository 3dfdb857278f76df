"""One pass of a workload, in a fresh interpreter, as a command-line user runs it.

Reads a JSON spec on stdin and prints one JSON object on stdout. The import
of dicketangle is timed first (set-up), then the workload itself (the pass),
then, untraced and outside the pass time, the per-call latency samples.

Throughout, a timer signal times a short fixed loop 20 times a second
(SpeedProbe). The probe's own time is taken out of every timing. The probe
times inside the set-up and the pass, and the probes nearest to each timed
call, are reported, so that run.py can scale each timing to a steady host
speed.
Started by run.py; not meant to be run by hand.
"""

import io
import json
import math
import os
import resource
import signal
import sys
from contextlib import redirect_stdout
from time import perf_counter

PROBE_INTERVAL_S = 0.05
PROBE_LOOPS = 2000


class SpeedProbe:
    """Times PROBE_LOOPS square roots on each SIGALRM; the time tracks the host's speed."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = perf_counter()
        acc = 0.0
        for i in range(PROBE_LOOPS):
            acc += math.sqrt(i + 0.5)
        dt = perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def clock(self) -> float:
        """Wall time with the probe's own time taken out."""
        return perf_counter() - self.spent


class Region:
    """A timed region: its seconds without probe time, and the probe times inside it."""

    def __init__(self, probe: SpeedProbe):
        self.probe = probe

    def __enter__(self):
        self.t0, self.n0 = self.probe.clock(), len(self.probe.samples)
        return self

    def __exit__(self, *exc):
        self.seconds = self.probe.clock() - self.t0
        self.probes = self.probe.samples[self.n0 :]
        return False

    def report(self) -> dict:
        return {"s": self.seconds, "probes": self.probes}


def _latencies(dt, points, route, probe):
    """Time one public call per point.

    Returns the microseconds, the number of probes taken before each call
    (to find the probes nearest to it) and the outputs.
    """
    lat, near, outs = [], [], []
    for n, k, a in points:
        near.append(len(probe.samples))
        t0 = probe.clock()
        if route == "record":
            rec = dt.tangle_record(dt.DickeParams(n, k, a))
            lat.append((probe.clock() - t0) * 1e6)
            outs.append([n, k, a, rec.c1_sq, rec.c2_sq, rec.tau, rec.n2, rec.xi])
        else:
            psi = dt.expand_state(dt.DickeParams(n, k, a))
            rho2 = dt.partial_trace_to_two(psi)
            rho1 = dt.partial_trace_to_one(psi)
            lat.append((probe.clock() - t0) * 1e6)
            outs.append([[n, k, a], list(rho2.entries), list(rho1.entries)])
    return {"latency_us": lat, "latency_probe_index": near, "rows": outs}


def main() -> None:
    spec = json.load(sys.stdin)
    src = spec["src"]
    sys.path.insert(0, src)
    probe = SpeedProbe()
    probe.start()
    try:
        out = run(spec, src, probe)
    finally:
        probe.stop()
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["probes"] = probe.samples
    sys.stdout.write(json.dumps(out) + "\n")


def run(spec: dict, src: str, probe: SpeedProbe) -> dict:
    with Region(probe) as setup:
        import dicketangle as dt

    if not os.path.abspath(dt.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported dicketangle from {dt.__file__}, not from {src}")
    from dicketangle import cli

    if spec["kind"] == "calls":
        n, k, a = spec["points"][0]
        dt.tangle_record(dt.DickeParams(n, k, a))  # warm-up, neither timed nor traced

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    out = {"setup": setup.report()}
    with Region(probe) as work:
        if spec["kind"] == "calls":
            out.update(_latencies(dt, spec["points"], "record", probe))
        else:
            buf = io.StringIO()
            with redirect_stdout(buf):
                out["exit_code"] = cli.main(spec["argv"])
            out["stdout"] = buf.getvalue()
    out["pass"] = work.report()

    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.summary()
        out["absent"] = tracer.absent
        if spec.get("spans_path"):
            tracer.write_spans(spec["spans_path"])
    elif spec["kind"] != "calls":
        out.update(_latencies(dt, spec["latency_points"], spec["route"], probe))
    return out


if __name__ == "__main__":
    main()
