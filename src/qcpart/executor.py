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

    def _distinct(self) -> tuple[np.ndarray, list[tuple]]:
        """``(code, keys)``: gate i renders as ``keys[code[i]]``, a
        ``(rendering, kind, parts)`` made once per distinct (label, control,
        target, control's part, target's part)."""
        labels = self.circuit.labels
        codes = {label: i for i, label in enumerate(dict.fromkeys(labels))}
        c, t = (self.circuit.ends + 1).T  # 1-based; control 0 for a single-qubit gate
        width = self.circuit.width + 1
        k = int(self.parts.max(initial=0)) + 1
        dims = (len(codes), width, width, k, k)
        key = np.ravel_multi_index(  # raises rather than wraps if dims overflow int64
            (np.fromiter(map(codes.__getitem__, labels), np.int64, len(labels)), c, t,
             *self.parts.T), dims)
        key, code = np.unique(key, return_inverse=True)
        names = list(map(str.upper, codes))
        keys = []
        for i, qc, qt, a, b in zip(*(col.tolist() for col in np.unravel_index(key, dims))):
            label = names[i]
            if a != b:
                keys.append((f"{label}(q{qc},p{a},q{qt},p{b})", GLOBAL,
                             (a, b) if a < b else (b, a)))
            elif qc:
                keys.append((f"{label}(q{qc},q{qt},p{a})", LOCAL, (a,)))
            else:
                keys.append((f"{label}(q{qt},p{a})", LOCAL, (a,)))
        return code, keys

    def rows(self):
        """One ``(gate, rendering, kind, parts, teleports_so_far)`` tuple of plain
        Python values per gate, in execution order and JSON key order; ``gate``
        is 1-based and ``parts`` holds the gate's distinct parts, ascending."""
        code, keys = self._distinct()
        teleports = np.cumsum(self.is_global).tolist()
        for gate, (i, n) in enumerate(zip(code.tolist(), teleports), 1):
            yield (gate, *keys[i], n)


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
    """Aligned three-column table: # of Gate, Gate_name, Type (L/G); each
    distinct gate is padded once, and the rows are joined once."""
    code, keys = trace._distinct()
    first = max(len("# of Gate"), len(f"g{len(code)}"))
    second = max([len("Gate_name"), *(len(rendering) for rendering, _, _ in keys)])
    middles = np.array([f"  {rendering:<{second}}  {'G' if kind == GLOBAL else 'L'}\n"
                        for rendering, kind, _ in keys], dtype=object)
    pieces = np.empty((len(code), 2), dtype=object)
    pieces[:, 0] = [f"g{gate}".ljust(first) for gate in range(1, len(code) + 1)]
    pieces[:, 1] = middles[code]
    return "".join([f"{'# of Gate':<{first}}  {'Gate_name':<{second}}  Type\n",
                    *pieces.ravel().tolist()])


def trace_to_records(trace: Trace) -> list[dict]:
    """JSON-ready records, one per gate, in the key order of ``trace_to_json``."""
    return [{"gate": gate, "rendering": rendering, "kind": kind, "parts": list(parts),
             "teleports_so_far": n} for gate, rendering, kind, parts, n in trace.rows()]


def trace_to_json(trace: Trace, pad: str = "") -> str:
    """``json.dumps(trace_to_records(trace), indent=2)``, byte for byte, with
    ``pad`` after every newline, so it can sit at that depth of an indent=2
    document.

    The standard library drops to its pure-Python encoder whenever ``indent``
    is set, so each record is joined from four strings instead: a fixed head,
    the gate number, the middle of its distinct gate (rendering escaped by
    the same C routine ``json.dumps`` uses) and the running teleport count.
    """
    code, keys = trace._distinct()
    if not keys:
        return "[]"
    nl = "\n" + pad
    middles = np.array([
        f',{nl}    "rendering": {encode_basestring_ascii(rendering)},{nl}    "kind": "{kind}",'
        f'{nl}    "parts": [{nl}      ' + f",{nl}      ".join(map(str, parts)) +
        f'{nl}    ],{nl}    "teleports_so_far": ' for rendering, kind, parts in keys], dtype=object)
    numbers = np.array(list(map(str, range(len(code) + 1))), dtype=object)
    pieces = np.empty((len(code), 4), dtype=object)
    pieces[:, 0] = f'{nl}  }},{nl}  {{{nl}    "gate": '
    pieces[0, 0] = f'[{nl}  {{{nl}    "gate": '
    pieces[:, 1] = numbers[1:]
    pieces[:, 2] = middles[code]
    pieces[:, 3] = numbers[np.cumsum(trace.is_global)]
    out = pieces.ravel().tolist()
    out.append(f"{nl}  }}{nl}]")
    return "".join(out)
