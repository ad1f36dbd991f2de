"""Per-line references for ``qcpart.circuit.parse_circuit`` and
``qcpart.executor.trace_execution``: the parser that checks and converts one
line at a time and builds one ``Gate`` per gate, and the trace that classifies
one gate at a time. The columnar versions in ``src/`` must match them
exactly, errors included.
"""

from __future__ import annotations

from qcpart import Circuit, Gate
from qcpart.errors import CircuitSyntaxError
from qcpart.executor import GLOBAL, LOCAL, TraceEntry


def _make_gates(specs):
    return tuple(Gate(i, label, qubits) for i, (label, qubits) in enumerate(specs))


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
    return Circuit(width=width, gates=_make_gates(specs), name=name)


def reference_trace(circuit: Circuit, assignment: PartitionAssignment) -> tuple[TraceEntry, ...]:
    """One entry per gate in execution order, with a running teleport count.

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
    for g in circuit.gates:
        label = g.label.upper()
        if not g.is_two_qubit:
            t = g.target
            entries.append(TraceEntry(
                g.ordinal, f"{label}(q{t + 1},p{part[t]})", LOCAL,
                (part[t],), teleports,
            ))
            continue
        c, t = g.qubits
        pc, pt = part[c], part[t]
        if pc == pt:
            rendering = f"{label}(q{c + 1},q{t + 1},p{pc})"
            kind = LOCAL
        else:
            rendering = f"{label}(q{c + 1},p{pc},q{t + 1},p{pt})"
            kind = GLOBAL
            teleports += 1
        entries.append(TraceEntry(g.ordinal, rendering, kind, tuple(sorted({pc, pt})), teleports))
    return tuple(entries)


