"""Gate classification under a partition assignment: execution trace and metrics.

A two-qubit gate whose control and target sit in different parts is global
and costs one teleportation; everything else is local and free. Parts are
rendered 0-based (p0, p1, ...) in gate strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from .circuit import Circuit
from .partitioner import PartitionAssignment, PartitionResult

LOCAL = "local"
GLOBAL = "global"


@dataclass(frozen=True, eq=False)
class Trace:
    """A circuit's gates classified under one assignment, as columns: row i of
    ``parts`` (read-only int64, shape (G, 2)) holds the part of gate i's
    control, or of its target for a single-qubit gate, then the part of its
    target. ``circuit`` is shared, not copied."""

    circuit: Circuit
    parts: np.ndarray

    @property
    def is_global(self) -> np.ndarray:
        return self.parts[:, 0] != self.parts[:, 1]

    def rows(self):
        """One ``(gate, rendering, kind, parts, teleports_so_far)`` tuple of plain
        Python values per gate, in execution order and JSON key order; ``gate``
        is 1-based and ``parts`` holds the gate's distinct parts, ascending."""
        c, t = (self.circuit.ends + 1).T.tolist()  # 1-based; control 0 for a single-qubit gate
        pc, pt = self.parts.T.tolist()
        teleports = np.cumsum(self.is_global).tolist()
        for i, (label, qc, qt, a, b, n) in enumerate(
                zip(map(str.upper, self.circuit.labels), c, t, pc, pt, teleports), 1):
            if a != b:
                yield i, f"{label}(q{qc},p{a},q{qt},p{b})", GLOBAL, (a, b) if a < b else (b, a), n
            elif qc:
                yield i, f"{label}(q{qc},q{qt},p{a})", LOCAL, (a,), n
            else:
                yield i, f"{label}(q{qt},p{a})", LOCAL, (a,), n


@dataclass(frozen=True)
class Metrics:
    """Evaluation summary; ratio_r = teleportations / (2 * qubits), exact."""

    teleportations: int
    qubits: int
    ratio_r: Fraction
    per_part_sizes: tuple[int, ...]


def trace_execution(circuit: Circuit, assignment: PartitionAssignment) -> Trace:
    """Every gate of ``circuit`` classified at once under ``assignment``. Single-qubit
    gates are local; the global ones number the assignment's inter-part weight."""
    if assignment.n != circuit.width:
        raise ValueError(f"assignment covers {assignment.n} qubits, "
                         f"circuit has {circuit.width}")
    ends = circuit.ends
    # a single-qubit gate's target stands in for its missing control
    parts = np.asarray(assignment.part_labels(), np.int64)[np.where(ends < 0, ends[:, 1:], ends)]
    parts.setflags(write=False)
    return Trace(circuit, parts)


def compute_metrics(circuit: Circuit, result: PartitionResult) -> Metrics:
    """Teleportation count and the ratio R = teleportations / (2 * qubits)."""
    return Metrics(
        teleportations=result.cost,
        qubits=circuit.width,
        ratio_r=Fraction(result.cost, 2 * circuit.width),
        per_part_sizes=result.assignment.sizes(),
    )


def format_ratio(r: Fraction) -> str:
    """Exact rational rendered with 2 fractional digits (ties to even)."""
    scaled = round(r * 100)
    return f"{scaled // 100}.{scaled % 100:02d}"


def trace_to_text(trace: Trace) -> str:
    """Aligned three-column table: # of Gate, Gate_name, Type (L/G)."""
    rows = [("# of Gate", "Gate_name", "Type")] + [
        (f"g{gate}", rendering, "G" if kind == GLOBAL else "L")
        for gate, rendering, kind, _, _ in trace.rows()]
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "".join("  ".join(map(str.ljust, r, widths)).rstrip() + "\n" for r in rows)


def trace_to_records(trace: Trace) -> list[dict]:
    """JSON-ready records, one per gate, in the key order of ``trace_to_json``."""
    return [{"gate": gate, "rendering": rendering, "kind": kind, "parts": list(parts),
             "teleports_so_far": n} for gate, rendering, kind, parts, n in trace.rows()]


# one trace_to_records record at depth 1 of a json.dumps(..., indent=2) array, by kind
_RECORD_JSON = {
    LOCAL: '  {\n    "gate": %d,\n    "rendering": %s,\n    "kind": "local",\n'
           '    "parts": [\n      %d\n    ],\n    "teleports_so_far": %d\n  }',
    GLOBAL: '  {\n    "gate": %d,\n    "rendering": %s,\n    "kind": "global",\n'
            '    "parts": [\n      %d,\n      %d\n    ],\n    "teleports_so_far": %d\n  }',
}


def trace_to_json(trace: Trace) -> str:
    """``json.dumps(trace_to_records(trace), indent=2)``, byte for byte.

    The standard library drops to its pure-Python encoder whenever ``indent``
    is set, so each record is filled into a fixed indent=2 template instead,
    with the rendering escaped by the same C routine ``json.dumps`` uses.
    """
    body = ",\n".join(_RECORD_JSON[kind] % (gate, encode_basestring_ascii(rendering), *parts, n)
                      for gate, rendering, kind, parts, n in trace.rows())
    return "[\n" + body + "\n]" if body else "[]"
