"""Gate-list circuit model, plain-text parser, RevLib-style importer, generators.

Qubits are 0-based ints internally. Every file format and every report uses
the 1-based numbering q1..qn, so the parser and renderer translate at the
boundary.

The canonical text format (``.qc``) is line-oriented:

    qubits 3        # header, mandatory first significant line
    cnot 1 3        # two-qubit gate: <label> <control> <target>
    h 2             # single-qubit gate: <label> <qubit>

Blank lines and ``#`` comments are ignored. Labels are opaque: only the
number of operands matters downstream, so unknown labels are accepted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CircuitSyntaxError, UnsupportedGateError

QubitId = int


@dataclass(frozen=True)
class Gate:
    """One gate in execution order; ``qubits`` is (control, target) for
    two-qubit gates and a 1-tuple for single-qubit gates."""

    ordinal: int
    label: str
    qubits: tuple[QubitId, ...]

    def __post_init__(self):
        if len(self.qubits) not in (1, 2):
            raise ValueError(f"gate g{self.ordinal + 1}: only 1- and 2-qubit gates are supported")
        if len(self.qubits) == 2 and self.qubits[0] == self.qubits[1]:
            raise ValueError(f"gate g{self.ordinal + 1}: control equals target")

    @property
    def is_two_qubit(self) -> bool:
        return len(self.qubits) == 2

    @property
    def control(self) -> QubitId | None:
        return self.qubits[0] if self.is_two_qubit else None

    @property
    def target(self) -> QubitId:
        return self.qubits[-1]


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over ``width`` qubits. Immutable once built.

    ``decomposed_mct`` records that multi-control gates were replaced by
    pairwise CNOTs on import; reports must surface that the circuit is an
    interaction-preserving approximation of the source.
    """

    width: int
    gates: tuple[Gate, ...] = ()
    name: str = "circuit"
    decomposed_mct: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("circuit width must be >= 1")
        for i, g in enumerate(self.gates):
            if g.ordinal != i:
                raise ValueError(f"gate ordinals must be consecutive from 0, got {g.ordinal} at position {i}")
            for q in g.qubits:
                if not 0 <= q < self.width:
                    raise ValueError(f"gate g{i + 1} touches q{q + 1}, outside width {self.width}")

    @property
    def size(self) -> int:
        return len(self.gates)

    @property
    def two_qubit_count(self) -> int:
        return sum(1 for g in self.gates if g.is_two_qubit)


def _make_gates(specs: list[tuple[str, tuple[int, ...]]]) -> tuple[Gate, ...]:
    return tuple(Gate(i, label, qubits) for i, (label, qubits) in enumerate(specs))


def parse_circuit(text: str, name: str = "circuit") -> Circuit:
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


def render_circuit(circuit: Circuit) -> str:
    """Render a Circuit back to canonical ``.qc`` text (1-based indices)."""
    lines = [f"qubits {circuit.width}"]
    for g in circuit.gates:
        lines.append(" ".join([g.label] + [str(q + 1) for q in g.qubits]))
    return "\n".join(lines) + "\n"


def import_real(text: str, decompose_mct: bool = False, name: str = "circuit") -> Circuit:
    """Import a RevLib-style ``.real`` description.

    Supported gate lines: ``t1 x`` (NOT), ``t2 c t`` (CNOT), and any other
    single-operand gate, kept under its own label. ``tK`` lines with K >= 3
    are multi-control Toffolis: rejected unless ``decompose_mct`` is set, in
    which case each one becomes one CNOT per (control, target) pair. That
    replacement keeps the qubit-interaction structure but is not a unitary
    equivalence, so the resulting Circuit carries ``decomposed_mct=True``.
    """
    width = None
    var_index: dict[str, int] = {}
    specs: list[tuple[str, tuple[int, ...]]] = []
    in_body = False
    decomposed = False

    def resolve(tok: str, lineno: int) -> int:
        if tok in var_index:
            return var_index[tok]
        raise CircuitSyntaxError(f"unknown variable {tok!r}", lineno)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0].lower()
        if head.startswith("."):
            if head == ".numvars":
                if len(tokens) != 2:
                    raise CircuitSyntaxError(".numvars expects one integer", lineno)
                try:
                    width = int(tokens[1])
                except ValueError:
                    raise CircuitSyntaxError(f"bad .numvars value {tokens[1]!r}", lineno) from None
                if width < 1:
                    raise CircuitSyntaxError(".numvars must be >= 1", lineno)
            elif head == ".variables":
                if width is None:
                    raise CircuitSyntaxError(".variables before .numvars", lineno)
                if len(tokens) - 1 != width:
                    raise CircuitSyntaxError(
                        f".variables lists {len(tokens) - 1} names, .numvars says {width}", lineno
                    )
                for i, v in enumerate(tokens[1:]):
                    if v in var_index:
                        raise CircuitSyntaxError(f"variable {v!r} is already defined", lineno)
                    var_index[v] = i
            elif head == ".begin":
                in_body = True
            elif head == ".end":
                break
            # other directives (.inputs, .outputs, .constants, ...) carry no
            # structure we use
            continue
        if width is None or not var_index:
            raise CircuitSyntaxError("gate line before .numvars/.variables header", lineno)
        if not in_body:
            # some files omit .begin; treat the first gate line as the body
            in_body = True
        operands = [resolve(t, lineno) for t in tokens[1:]]
        if head.startswith("t") and head[1:].isdigit():
            arity = int(head[1:])
            if arity != len(operands):
                raise CircuitSyntaxError(
                    f"gate {head!r} expects {arity} operands, got {len(operands)}", lineno
                )
            if arity == 1:
                specs.append(("not", (operands[0],)))
            elif arity == 2:
                if operands[0] == operands[1]:
                    raise CircuitSyntaxError("control and target must differ", lineno)
                specs.append(("cnot", (operands[0], operands[1])))
            else:
                if not decompose_mct:
                    raise UnsupportedGateError(
                        f"{arity}-qubit gate {head!r} needs decompose_mct to import", lineno
                    )
                *controls, target = operands
                for c in controls:
                    if c == target:
                        raise CircuitSyntaxError("control and target must differ", lineno)
                    specs.append(("cnot", (c, target)))
                decomposed = True
        elif len(operands) == 1:
            specs.append((head, (operands[0],)))
        else:
            raise UnsupportedGateError(
                f"gate {head!r} with {len(operands)} operands is not in the supported subset", lineno
            )
    if width is None:
        raise CircuitSyntaxError("missing .numvars header")
    return Circuit(width=width, gates=_make_gates(specs), name=name, decomposed_mct=decomposed)


def gen_qft(n: int, name: str | None = None) -> Circuit:
    """Generate the standard quantum Fourier transform gate list on n qubits.

    For each qubit qi: one Hadamard, then one controlled phase gate from every
    later qubit qj onto qi. Total n + n(n-1)/2 gates; every unordered qubit
    pair interacts exactly once.
    """
    if n < 1:
        raise ValueError("qft size must be >= 1")
    specs: list[tuple[str, tuple[int, ...]]] = []
    for i in range(n):
        specs.append(("h", (i,)))
        for j in range(i + 1, n):
            specs.append((f"r{j - i + 1}", (j, i)))
    return Circuit(width=n, gates=_make_gates(specs), name=name or f"qft{n}")


GENERATORS = {"qft": gen_qft}
