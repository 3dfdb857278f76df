"""Spans around the package's public functions, recorded from outside the package.

Tracer.install() replaces each traced function, in every dicketangle module
namespace that holds it (so `from .x import f` bindings are covered too),
with a wrapper that records one span: its name, start, end and the span that
was open when it began. Spans stay in memory until summary() or
write_spans() reads them. A function the package no longer has is listed in
`absent` and traced as zero calls, and so is one whose module is gone.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter_ns

TARGETS = (
    ("dicke", ("amplitudes", "cg_coefficients")),
    (
        "marginals",
        ("two_qubit_marginal", "single_qubit_marginal", "marginal_matrix", "partial_transpose"),
    ),
    (
        "measures",
        ("tangle_record", "concurrence_two_qubit", "negativity_two_qubit", "one_vs_rest"),
    ),
    ("smallmat", ("sym_eigenvalues", "general_eigenvalues")),
    (
        "oracle",
        ("expand_state", "symmetrize_two_spinors", "partial_trace_to_two", "partial_trace_to_one"),
    ),
    ("cli", ("run_sweep", "run_oracle")),
)

NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS for fn in fns)


class Tracer:
    def __init__(self):
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.absent = []
        self._open = []
        self._patched = []

    def install(self) -> None:
        for idx, qualname in enumerate(NAMES):
            mod_name, fn_name = qualname.split(".")
            try:
                module = importlib.import_module(f"dicketangle.{mod_name}")
            except ModuleNotFoundError:
                module = None
            original = getattr(module, fn_name, None)
            if original is None:
                self.absent.append(qualname)
                continue
            wrapper = self._wrap(idx, original)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("dicketangle"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, idx: int, fn):
        parent, name, start, end, opened = self.parent, self.name, self.start, self.end, self._open

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid = len(start)
            parent.append(opened[-1] if opened else -1)
            name.append(idx)
            end.append(0)
            opened.append(sid)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter_ns()
                opened.pop()

        return span

    def summary(self) -> dict:
        """Per traced name: calls and self time in seconds (span minus child spans)."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(NAMES)
        self_ns = [0] * len(NAMES)
        for i in range(n):
            calls[self.name[i]] += 1
            self_ns[self.name[i]] += self.end[i] - self.start[i] - child[i]
        return {
            qualname: {"calls": calls[j], "self_s": self_ns[j] * 1e-9}
            for j, qualname in enumerate(NAMES)
        }

    def write_spans(self, path: str) -> None:
        """One tab-separated line per span: id, parent id, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fields = (i, self.parent[i], NAMES[self.name[i]], self.start[i], self.end[i])
                fh.write("\t".join(map(str, fields)) + "\n")
