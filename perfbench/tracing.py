"""Spans around qcpart's layer boundaries, recorded from outside.

While a Tracer is installed, the public functions of each layer are
replaced, in every qcpart module that holds a reference to them, by
wrappers that record a span: name, start, end, span id, parent span id and
the id of the job it belongs to. Per-entry table reads are too many for one
span each, so their time is summed into the enclosing span instead. Spans
stay in memory and are written out when the run ends. Nothing under src/
is edited.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
import time
from collections import defaultdict

# (module, attribute, span name); a missing attribute is skipped, so the
# benchmark keeps running when a later version moves a function.
BOUNDARIES = (
    ("qcpart.circuit", "parse_circuit", "circuit.parse"),
    ("qcpart.bigraph", "qc_to_bigraph", "bigraph.graph"),
    ("qcpart.bigraph", "weight_matrix", "bigraph.weights"),
    ("qcpart.dpcore", "solve", "dpcore.solve"),
    ("qcpart.partitioner", "dp_partition", "partitioner.dp"),
    ("qcpart.partitioner", "dp_partition_capped", "partitioner.dp"),
    ("qcpart.partitioner", "dp_table", "partitioner.dp"),
    ("qcpart.partitioner", "assignment_cost", "partitioner.recheck"),
    ("qcpart.partitioner", "oracle_partition", "partitioner.oracle"),
    ("qcpart.executor", "trace_execution", "executor.trace"),
    ("qcpart.executor", "trace_to_records", "executor.trace"),
    ("qcpart.executor", "compute_metrics", "executor.metrics"),
    ("qcpart.executor", "format_ratio", "executor.metrics"),
    ("qcpart.cli", "main", "cli.main"),
)
# (module, class, method, name) whose time is summed into the caller's span
SUMMED = (
    ("qcpart.partitioner", "DpTable", "cost_at", "partitioner.table_read"),
    ("qcpart.partitioner", "DpTable", "choice_at", "partitioner.table_read"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int | None, int, str, int, int]] = []
        self.summed: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.job = 0
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one whole job."""
        sid, parent = self._open()
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, parent, name, t0)

    def _open(self) -> tuple[int, int | None]:
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int | None, name: str, t0: int) -> None:
        t1 = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((sid, parent, self.job, name, t0, t1))

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            sid, parent = self._open()
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, t0)
        return traced

    def _wrap_summed(self, fn, name: str):
        def summed(*args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.summed[self._stack[-1]][name] += time.perf_counter_ns() - t0
        return summed

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "qcpart" or name.startswith("qcpart.")]
        for modname, attr, name in BOUNDARIES:
            fn = getattr(sys.modules.get(modname), attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(fn, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for modname, clsname, attr, name in SUMMED:
            cls = getattr(sys.modules.get(modname), clsname, None)
            fn = getattr(cls, attr, None)
            if fn is None:
                continue
            self._restore.append((cls, attr, fn))
            setattr(cls, attr, self._wrap_summed(fn, name))

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._restore):
            setattr(obj, attr, value)
        self._restore.clear()

    def layer_ms(self, jobs: set[int]) -> dict[str, float]:
        """Busy and self milliseconds per span name over the given jobs:
        '<name>' is the summed duration, '<name>.self' the duration minus
        the time its direct children and summed calls cover."""
        spans = [s for s in self.spans if s[2] in jobs]
        child_ns: dict[int, int] = defaultdict(int)
        for sid, parent, _job, _name, t0, t1 in spans:
            if parent is not None:
                child_ns[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for sid, _parent, _job, name, t0, t1 in spans:
            inner = child_ns[sid] + sum(self.summed.get(sid, {}).values())
            out[name] += (t1 - t0) / 1e6
            out[name + ".self"] += (t1 - t0 - inner) / 1e6
            for sname, ns in self.summed.get(sid, {}).items():
                out[sname] += ns / 1e6
        return out

    def records(self) -> list[dict]:
        names = ("span_id", "parent_id", "job_id", "name", "start_ns", "end_ns")
        out = [dict(zip(names, s)) for s in self.spans]
        for rec in out:
            summed = self.summed.get(rec["span_id"])
            if summed:
                rec["summed_ns"] = dict(summed)
        return out

