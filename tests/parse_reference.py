"""Per-line references for ``qcpart.circuit.parse_circuit`` and
``qcpart.executor.trace_execution``: the parser that checks and converts one
line at a time, and the trace that classifies one gate at a time. The
columnar versions in ``src/`` must match them exactly, errors included.

The edge-tuple bipartite graph is the reference for ``qcpart.bigraph``: the
(gate, qubit) edge tuple built from a circuit, its qubit pairs recovered by a
stable sort after checking every edge, its weights counted pair by pair, and
its DOT text.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

import numpy as np

from qcpart import Circuit
from qcpart.errors import CircuitSyntaxError
from qcpart.executor import GLOBAL, LOCAL


def reference_parse(text: str, name: str = "circuit") -> Circuit:
    """Parse ``.qc`` text into a Circuit. Gate order equals line order.

    Raises CircuitSyntaxError with a 1-based line number on malformed input,
    an out-of-range qubit index, a missing ``qubits`` header, or a two-qubit
    gate whose control equals its target.
    """
    width = None
    specs: list[tuple[str, tuple[int, ...]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if width is None:
            if tokens[0].lower() != "qubits":
                raise CircuitSyntaxError("expected 'qubits <n>' header before any gate", lineno)
            if len(tokens) != 2:
                raise CircuitSyntaxError("header must be exactly 'qubits <n>'", lineno)
            try:
                width = int(tokens[1])
            except ValueError:
                raise CircuitSyntaxError(f"qubit count {tokens[1]!r} is not an integer", lineno) from None
            if width < 1:
                raise CircuitSyntaxError("qubit count must be >= 1", lineno)
            continue
        label, operands = tokens[0], tokens[1:]
        if label.lower() == "qubits":
            raise CircuitSyntaxError("duplicate 'qubits' header", lineno)
        if len(operands) not in (1, 2):
            raise CircuitSyntaxError(
                f"gate {label!r} has {len(operands)} operands; expected 1 or 2", lineno
            )
        qubits = []
        for tok in operands:
            try:
                q = int(tok)
            except ValueError:
                raise CircuitSyntaxError(f"operand {tok!r} is not an integer", lineno) from None
            if not 1 <= q <= width:
                raise CircuitSyntaxError(f"qubit index {q} outside declared range 1..{width}", lineno)
            qubits.append(q - 1)
        if len(qubits) == 2 and qubits[0] == qubits[1]:
            raise CircuitSyntaxError("control and target must differ", lineno)
        specs.append((label, tuple(qubits)))
    if width is None:
        raise CircuitSyntaxError("missing 'qubits <n>' header")
    return Circuit(width, [label for label, _ in specs],
                   [(-1, *qs) if len(qs) == 1 else qs for _, qs in specs], name)


def reference_trace(circuit: Circuit, assignment: PartitionAssignment) -> list[dict]:
    """One ``trace_to_records`` record per gate in execution order, with a
    running teleport count.

    Single-qubit gates are always local; the total number of global entries
    equals the inter-part weight of the assignment.
    """
    if assignment.n != circuit.width:
        raise ValueError(
            f"assignment covers {assignment.n} qubits, circuit has {circuit.width}"
        )
    part = assignment.part_labels()
    entries = []
    teleports = 0
    for i, (label, (c, t)) in enumerate(zip(circuit.labels, circuit.ends.tolist())):
        label = label.upper()
        if c < 0:
            rendering, kind, parts = f"{label}(q{t + 1},p{part[t]})", LOCAL, [part[t]]
        elif part[c] == part[t]:
            rendering, kind, parts = f"{label}(q{c + 1},q{t + 1},p{part[c]})", LOCAL, [part[c]]
        else:
            rendering = f"{label}(q{c + 1},p{part[c]},q{t + 1},p{part[t]})"
            kind, parts = GLOBAL, sorted([part[c], part[t]])
            teleports += 1
        entries.append({"gate": i + 1, "rendering": rendering, "kind": kind, "parts": parts,
                        "teleports_so_far": teleports})
    return entries




class ReferenceGraph(NamedTuple):
    """Incidence structure: edges are (gate ordinal, qubit) pairs in gate order."""

    num_qubits: int
    num_gates: int
    edges: tuple[tuple[int, int], ...]


def reference_qc_to_bigraph(circuit: Circuit) -> ReferenceGraph:
    """Convert a circuit to its bipartite graph, one edge per (gate, qubit)
    incidence, added gate by gate from left to right (control before target)."""
    ends = circuit.ends.ravel()
    touched = ends >= 0  # drops the -1 control of single-qubit gates
    gate = np.repeat(np.arange(circuit.size), 2)[touched]
    return ReferenceGraph(circuit.width, circuit.size,
                          tuple(zip(gate.tolist(), ends[touched].tolist())))


def reference_pairs(graph: ReferenceGraph) -> np.ndarray:
    """The (first, second) qubit of every degree-2 gate vertex, in gate order,
    as an int64 array of shape (P, 2); raises ValueError on a bad edge."""
    ends = np.fromiter(chain.from_iterable(graph.edges), np.int64,
                       count=2 * len(graph.edges)).reshape(-1, 2)
    g, q = ends[:, 0], ends[:, 1]
    bad_gate = (g < 0) | (g >= graph.num_gates)
    bad = bad_gate | (q < 0) | (q >= graph.num_qubits)
    if bad.any():
        i = int(np.argmax(bad))  # the first bad edge; its gate is checked first
        if bad_gate[i]:
            raise ValueError(f"edge references unknown gate vertex {g[i]}")
        raise ValueError(f"edge references unknown qubit vertex {q[i]}")
    degree = np.bincount(g, minlength=graph.num_gates)
    bad = np.flatnonzero((degree < 1) | (degree > 2)).tolist()
    if bad:
        raise ValueError(f"gate vertices with degree outside 1..2: {bad}")
    order = np.argsort(g, kind="stable")  # a gate's edges become adjacent
    g, q = g[order], q[order]
    pairs = q[degree[g] == 2].reshape(-1, 2)
    loops = np.flatnonzero(pairs[:, 0] == pairs[:, 1])
    if loops.size:
        gate = int(np.flatnonzero(degree == 2)[loops[0]])
        raise ValueError(f"gate vertex {gate} joins qubit {pairs[loops[0], 0]} twice")
    return pairs


def reference_weights(graph: ReferenceGraph) -> np.ndarray:
    """The symmetric qubit-pair counts, one increment per degree-2 gate vertex."""
    m = np.zeros((graph.num_qubits, graph.num_qubits), np.int64)
    for a, b in reference_pairs(graph).tolist():
        m[a, b] += 1
        m[b, a] += 1
    return m


def reference_dot(graph: ReferenceGraph, name: str = "bigraph") -> str:
    """DOT rendering with qubit and gate vertices in two ranks."""
    lines = [f'graph "{name}" {{', "  rankdir=BT;"]
    qnames = [f"q{i + 1}" for i in range(graph.num_qubits)]
    gnames = [f"g{i + 1}" for i in range(graph.num_gates)]
    lines.append("  { rank=same; " + "; ".join(qnames) + "; }" if qnames else "")
    if gnames:
        lines.append("  { rank=same; " + "; ".join(gnames) + "; }")
    for g, q in graph.edges:
        lines.append(f"  {gnames[g]} -- {qnames[q]};")
    lines.append("}")
    return "\n".join(line for line in lines if line) + "\n"
