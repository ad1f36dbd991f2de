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


@dataclass(frozen=True, slots=True)
class TraceEntry:
    gate_ordinal: int
    rendering: str
    kind: str  # LOCAL or GLOBAL
    parts: tuple[int, ...]
    teleports_so_far: int

    @property
    def is_global(self) -> bool:
        return self.kind == GLOBAL


@dataclass(frozen=True)
class Metrics:
    """Evaluation summary; ratio_r = teleportations / (2 * qubits), exact."""

    teleportations: int
    qubits: int
    ratio_r: Fraction
    per_part_sizes: tuple[int, ...]


def trace_execution(circuit: Circuit, assignment: PartitionAssignment) -> tuple[TraceEntry, ...]:
    """One entry per gate in execution order, with a running teleport count.

    Single-qubit gates are always local; the total number of global entries
    equals the inter-part weight of the assignment. Every gate is classified
    at once over the circuit's ``ends`` columns; only the renderings are
    formatted gate by gate.
    """
    if assignment.n != circuit.width:
        raise ValueError(
            f"assignment covers {assignment.n} qubits, circuit has {circuit.width}"
        )
    part = np.asarray(assignment.part_labels(), dtype=np.int64)
    c, t = circuit.ends[:, 0], circuit.ends[:, 1]
    two = c >= 0
    pt = part[t]
    pc = np.where(two, part[c], pt)  # a single-qubit gate's one part
    is_global = pc != pt
    teleports = np.cumsum(is_global)
    entries = []
    for i, (label, qc, qt, pci, pti, g, n) in enumerate(zip(
            map(str.upper, circuit.labels), (c + 1).tolist(), (t + 1).tolist(),
            pc.tolist(), pt.tolist(), is_global.tolist(), teleports.tolist())):
        if g:
            entries.append(TraceEntry(i, f"{label}(q{qc},p{pci},q{qt},p{pti})", GLOBAL,
                                      (pci, pti) if pci < pti else (pti, pci), n))
        elif qc:  # 1-based control; 0 for a single-qubit gate
            entries.append(TraceEntry(i, f"{label}(q{qc},q{qt},p{pci})", LOCAL, (pci,), n))
        else:
            entries.append(TraceEntry(i, f"{label}(q{qt},p{pti})", LOCAL, (pti,), n))
    return tuple(entries)


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


def trace_to_text(trace: tuple[TraceEntry, ...]) -> str:
    """Aligned three-column table: # of Gate, Gate_name, Type (L/G)."""
    rows = [(f"g{e.gate_ordinal + 1}", e.rendering, "G" if e.is_global else "L") for e in trace]
    headers = ("# of Gate", "Gate_name", "Type")
    widths = [max(len(headers[c]), *(len(r[c]) for r in rows)) if rows else len(headers[c])
              for c in range(3)]
    lines = ["  ".join(h.ljust(widths[c]) for c, h in enumerate(headers))]
    for r in rows:
        lines.append("  ".join(r[c].ljust(widths[c]) for c in range(3)).rstrip())
    return "\n".join(lines) + "\n"


def trace_to_records(trace: tuple[TraceEntry, ...]) -> list[dict]:
    """JSON-ready records, one per gate, in the key order of ``trace_to_json``."""
    return [
        {
            "gate": e.gate_ordinal + 1,
            "rendering": e.rendering,
            "kind": e.kind,
            "parts": list(e.parts),
            "teleports_so_far": e.teleports_so_far,
        }
        for e in trace
    ]


# one trace_to_records record at depth 1 of a json.dumps(..., indent=2) array
_RECORD_JSON = ('  {\n    "gate": %d,\n    "rendering": %s,\n    "kind": %s,\n'
                '    "parts": %s,\n    "teleports_so_far": %d\n  }')


def trace_to_json(trace: tuple[TraceEntry, ...]) -> str:
    """``json.dumps(trace_to_records(trace), indent=2)``, byte for byte.

    The standard library drops to its pure-Python encoder whenever ``indent``
    is set, so each record is filled into a fixed indent=2 template instead,
    with strings escaped by the same C routine ``json.dumps`` uses.
    """
    if not trace:
        return "[]"
    enc = encode_basestring_ascii
    return "[\n" + ",\n".join(
        _RECORD_JSON % (
            e.gate_ordinal + 1, enc(e.rendering), enc(e.kind),
            "[\n      " + ",\n      ".join(map(str, e.parts)) + "\n    ]" if e.parts else "[]",
            e.teleports_so_far,
        )
        for e in trace
    ) + "\n]"
