"""Span tracer for the benchmark's traced run.

The tracer wraps bellrsp's public functions from outside the package. A name
imported with ``from .statevector import cnot_fanout`` is a second reference
held by ``protocol``, so each function is wrapped at every module that holds
it, always by the same wrapper. ``StateVector.__post_init__`` is wrapped on
the class. Spans carry a name, start and end (ns), the parent span and the op
id; they stay in memory and are written as gzipped JSON lines, one object per
span, when the run ends, so spans emitted by the program itself can later be
merged into the same file. Work done inside pool worker processes records no
span here: the workers' copies of the tracer are discarded.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
import time

import bellrsp
import bellrsp.analysis
import bellrsp.cli
import bellrsp.protocol
import bellrsp.statevector

LAYERS = ("statevector", "protocol", "analysis", "cli")
MODULES = (bellrsp, bellrsp.statevector, bellrsp.protocol, bellrsp.analysis, bellrsp.cli)
OP_SPAN = "bench.op"  # root span of each op; its self time is the unattributed time

# Fields of a span record, in order.
NAME, START, END, PARENT, OP, INFO = range(6)


def _state_bytes(args, kwargs):
    """Computed, not measured: one complex128 per amplitude."""
    return {"bytes": 16 * 2 ** args[0].n_qubits}


def _mc_shape(args, kwargs):
    bound = inspect.signature(bellrsp.analysis.monte_carlo).bind(*args, **kwargs)
    bound.apply_defaults()
    return {"trials": bound.arguments["trials"], "workers": bound.arguments["workers"]}


class Tracer:
    """Spans of one run, kept in memory; install() wraps bellrsp, uninstall() restores it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.ops: dict[int, str] = {}  # op id -> label
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self._op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                if info is not None:
                    span[INFO] = info(args, kwargs)

        return traced

    def install(self) -> None:
        wrappers = {}
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith("bellrsp."):
                    continue
                if value not in wrappers:
                    layer = value.__module__.rsplit(".", 1)[1]
                    info = _mc_shape if value is bellrsp.analysis.monte_carlo else None
                    wrappers[value] = self._wrap(f"{layer}.{value.__name__}", value, info)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[value])
        cls = bellrsp.statevector.StateVector
        self._patched.append((cls, "__post_init__", cls.__post_init__))
        cls.__post_init__ = self._wrap("statevector.init", cls.__post_init__, _state_bytes)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def run_op(self, label: str, fn, *args):
        """Run ``fn(*args)`` as one op under a root span."""
        op = len(self.ops)
        self.ops[op] = label
        self._op = op
        try:
            return self._wrap(OP_SPAN, fn)(*args)
        finally:
            self._op = -1

    def write(self, path) -> None:
        """Gzipped JSON lines, one object per span."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for i, (name, start, end, parent, op, info) in enumerate(self.spans):
                record = {"id": i, "name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op, "op_label": self.ops.get(op)}
                if info:
                    record.update(info)
                out.write(json.dumps(record) + "\n")


class SpanIndex:
    """Queries over a finished trace: durations, self times and descendants."""

    def __init__(self, tracer: Tracer) -> None:
        self.spans = tracer.spans
        self.ops = tracer.ops
        self.children: list[list[int]] = [[] for _ in self.spans]
        child_ns = [0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span[PARENT] >= 0:
                self.children[span[PARENT]].append(i)
                child_ns[span[PARENT]] += span[END] - span[START]
        self.self_ns = [s[END] - s[START] - c for s, c in zip(self.spans, child_ns)]

    def name(self, i: int) -> str:
        return self.spans[i][NAME]

    def info(self, i: int) -> dict:
        return self.spans[i][INFO]

    def label(self, i: int) -> str | None:
        """Label of the op the span belongs to."""
        return self.ops.get(self.spans[i][OP])

    def dur_ns(self, i: int) -> int:
        return self.spans[i][END] - self.spans[i][START]

    def find(self, name: str, labels=None) -> list[int]:
        return [
            i for i, s in enumerate(self.spans)
            if s[NAME] == name and (labels is None or self.ops.get(s[OP]) in labels)
        ]

    def descendants(self, i: int):
        pending = list(self.children[i])
        while pending:
            j = pending.pop()
            yield j
            pending.extend(self.children[j])

    def p50(self, name: str, labels=None, scale: float = 1e-6) -> tuple[float, int]:
        """Median duration of the named spans, in ms by default, and their count.

        A function the program no longer calls reads 0.0 with a count of 0.
        """
        found = self.find(name, labels)
        if not found:
            return 0.0, 0
        return statistics.median(self.dur_ns(i) for i in found) * scale, len(found)

    def layer_self_ns(self, i: int, layer: str) -> int:
        """Self time of span ``i`` plus that of its descendants reached through ``layer`` spans only."""
        total = self.self_ns[i]
        for j in self.children[i]:
            if layer_of(self.name(j)) == layer:
                total += self.layer_self_ns(j, layer)
        return total


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
