"""Columnar circuit model, plain-text parser, RevLib-style importer, generators.

A Circuit is its gates' columns: a tuple of labels and one (control, target)
row per gate, so parsing, graph building and the trace run over arrays with
no per-gate objects. Qubits are 0-based ints internally; every file format
and every report uses the 1-based numbering q1..qn, so the parser and
renderer translate at the boundary.

The canonical text format (``.qc``) is line-oriented:

    qubits 3        # header, mandatory first significant line
    cnot 1 3        # two-qubit gate: <label> <control> <target>
    h 2             # single-qubit gate: <label> <qubit>

Blank lines and ``#`` comments are ignored. Labels are opaque: only the
number of operands matters downstream, so unknown labels are accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import index, itemgetter

import numpy as np

from .errors import CircuitSyntaxError, UnsupportedGateError


@dataclass(frozen=True, eq=False)
class Circuit:
    """An ordered gate list over ``width`` qubits, stored as columns. Immutable.

    ``labels[i]`` is the label of gate i, one ``str`` word with no whitespace
    or ``#`` and not ``qubits`` in any case (so it survives the ``.qc``
    text, whose header that word starts), and row i of ``ends``
    (read-only int64, shape (G, 2)) holds its 0-based control, or -1 for a
    single-qubit gate, and its target. The constructor checks the columns
    once, over whole columns, and stores its own read-only copy of ``ends``.
    Equality and hashing cover width, labels, ends and name.

    ``decomposed_mct`` records that multi-control gates were replaced by
    pairwise CNOTs on import; reports must surface that the circuit is an
    interaction-preserving approximation of the source.
    """

    width: int
    labels: tuple[str, ...] = ()
    ends: np.ndarray = ()
    name: str = "circuit"
    decomposed_mct: bool = False

    def __post_init__(self):
        """Check and store the columns; the first bad gate is reported, its
        control before its target."""
        try:
            width = index(self.width)
        except TypeError:
            raise ValueError("circuit width must be an integer") from None
        if width < 1:
            raise ValueError("circuit width must be >= 1")
        labels = tuple(self.labels)
        src = np.asarray(self.ends)
        with np.errstate(invalid="ignore"):  # NaN and inf fail the check below
            ends = np.array(src, dtype=np.int64)
        if (ends != src).any():  # the int64 copy truncated a fraction
            raise ValueError("qubit indices must be integers")
        if ends.size == 0:
            ends = ends.reshape(0, 2)
        if ends.shape != (len(labels), 2):
            raise ValueError(f"ends has shape {ends.shape}; expected ({len(labels)}, 2)")
        c, t = ends[:, 0], ends[:, 1]
        bad_c = (c < -1) | (c >= width)  # -1 marks a single-qubit gate
        bad_t = (t < 0) | (t >= width)
        bad = bad_c | bad_t | (c == t)
        if bad.any():
            i = int(np.argmax(bad))
            if bad_c[i] or bad_t[i]:
                q = c[i] if bad_c[i] else t[i]
                raise ValueError(f"gate g{i + 1} touches q{q + 1}, outside width {width}")
            raise ValueError(f"gate g{i + 1}: control equals target")
        try:  # space-joined labels split back into themselves iff each is one word
            words = " ".join(labels)
        except TypeError:  # a label that is not a str
            words = "#"
        if "#" in words or words.split() != list(labels):
            i, label = next((i, s) for i, s in enumerate(labels)
                            if not isinstance(s, str) or s.split() != [s] or "#" in s)
            raise ValueError(f"gate g{i + 1}: label {label!r} is not one word without '#'")
        if "qubits" in words.lower():  # the .qc header word, in any case
            i = next((i for i, s in enumerate(labels) if s.lower() == "qubits"), None)
            if i is not None:
                raise ValueError(f"gate g{i + 1}: label {labels[i]!r} is reserved for the header")
        ends.setflags(write=False)
        for key, value in (("width", width), ("labels", labels), ("ends", ends)):
            object.__setattr__(self, key, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.width, self.labels, self.name) == (other.width, other.labels, other.name)
                and np.array_equal(self.ends, other.ends))

    def __hash__(self):
        return hash((self.width, self.labels, self.ends.tobytes(), self.name))

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def two_qubit_count(self) -> int:
        return int(np.count_nonzero(self.ends[:, 0] >= 0))


def _header_width(tokens: list[str], lineno: int) -> int:
    """The qubit count a ``qubits <n>`` header line declares."""
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
    return width


def _gate_line_error(tokens: list[str], width: int) -> str | None:
    """The message of the first check a gate line fails, or None for a good
    line. Checks run in this order: a repeated header, the operand count,
    each operand in turn (an integer, then in 1..width), control vs target."""
    label, operands = tokens[0], tokens[1:]
    if label.lower() == "qubits":
        return "duplicate 'qubits' header"
    if len(operands) not in (1, 2):
        return f"gate {label!r} has {len(operands)} operands; expected 1 or 2"
    for tok in operands:
        try:
            q = int(tok)
        except ValueError:
            return f"operand {tok!r} is not an integer"
        if not 1 <= q <= width:
            return f"qubit index {q} outside declared range 1..{width}"
    if len(operands) == 2 and int(operands[0]) == int(operands[1]):
        return "control and target must differ"
    return None


def _int_or_zero(tok: str) -> int:
    """``int(tok)``, or 0 (never a 1-based qubit) if that fails or overflows int64."""
    try:
        q = int(tok)
    except ValueError:
        return 0
    return q if abs(q) < 1 << 63 else 0


def parse_circuit(text: str, name: str = "circuit") -> Circuit:
    """Parse ``.qc`` text into a Circuit. Gate order equals line order.

    The text is tokenized in one pass and the gate lines are checked
    together over arrays, with no per-gate objects. Raises
    CircuitSyntaxError with a 1-based line number on malformed input, an
    out-of-range qubit index, a missing ``qubits`` header, or a two-qubit
    gate whose control equals its target; when several lines are bad, the
    first one in line order is reported, for the first check it fails.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    rows = list(filter(None, map(str.split, lines)))  # the significant lines' tokens
    if not rows:
        raise CircuitSyntaxError("missing 'qubits <n>' header")
    header_line = next(n for n, line in enumerate(lines, 1) if line.split())
    width = _header_width(rows[0], header_line)
    body = rows[1:]
    arity = np.fromiter(map(len, body), np.int64, count=len(body)) - 1
    labels = tuple(map(itemgetter(0), body))
    operands = list(chain.from_iterable(map(itemgetter(slice(1, None)), body)))
    try:
        q = np.fromiter(map(int, operands), np.int64, count=len(operands))
    except (ValueError, OverflowError):
        q = np.fromiter(map(_int_or_zero, operands), np.int64, count=len(operands))
    q = np.append(q, (0, 0))  # a line without operands reads zeros; arity flags it
    start = np.cumsum(arity) - arity  # each line's first operand in q
    first, second = q[start], q[start + 1]
    two = arity == 2
    bad = ((arity < 1) | (arity > 2) | (first < 1) | (first > width)
           | two & ((second < 1) | (second > width) | (first == second)))
    headers = {label for label in set(labels) if label.lower() == "qubits"}
    if headers:
        bad |= np.fromiter((label in headers for label in labels), bool, count=len(labels))
    if bad.any():
        i = int(np.argmax(bad))
        linenos = [n for n, tokens in enumerate(map(str.split, lines), 1) if tokens]
        raise CircuitSyntaxError(_gate_line_error(body[i], width), linenos[i + 1])
    ends = np.stack([np.where(two, first, 0), np.where(two, second, first)], axis=1) - 1
    return Circuit(width, labels, ends, name)


def render_circuit(circuit: Circuit) -> str:
    """Render a Circuit back to canonical ``.qc`` text (1-based indices)."""
    lines = [f"qubits {circuit.width}"]
    for label, (c, t) in zip(circuit.labels, circuit.ends.tolist()):
        lines.append(f"{label} {t + 1}" if c < 0 else f"{label} {c + 1} {t + 1}")
    return "\n".join(lines) + "\n"


def import_real(text: str, decompose_mct: bool = False, name: str = "circuit") -> Circuit:
    """Import a RevLib-style ``.real`` description.

    Supported gate lines: ``t1 x`` (NOT), ``t2 c t`` (CNOT), and any other
    single-operand gate, kept under its own label (except ``qubits``, in any
    case, which the ``.qc`` header reserves). ``tK`` lines with K >= 3
    are multi-control Toffolis: rejected unless ``decompose_mct`` is set, in
    which case each one becomes one CNOT per (control, target) pair. That
    replacement keeps the qubit-interaction structure but is not a unitary
    equivalence, so the resulting Circuit carries ``decomposed_mct=True``.
    ``.numvars`` and ``.variables`` may each appear only once.
    """
    width = None
    var_index: dict[str, int] = {}
    labels: list[str] = []
    ends: list[tuple[int, int]] = []  # (control or -1, target), as in Circuit.ends
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
                if width is not None:
                    raise CircuitSyntaxError("duplicate .numvars", lineno)
                if len(tokens) != 2:
                    raise CircuitSyntaxError(".numvars expects one integer", lineno)
                try:
                    width = int(tokens[1])
                except ValueError:
                    raise CircuitSyntaxError(f"bad .numvars value {tokens[1]!r}", lineno) from None
                if width < 1:
                    raise CircuitSyntaxError(".numvars must be >= 1", lineno)
            elif head == ".variables":
                if var_index:
                    raise CircuitSyntaxError("duplicate .variables", lineno)
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
            elif head == ".end":
                break
            # other directives (.begin, which some files omit, .inputs,
            # .outputs, .constants, ...) carry no structure we use
            continue
        if width is None or not var_index:
            raise CircuitSyntaxError("gate line before .numvars/.variables header", lineno)
        operands = [resolve(t, lineno) for t in tokens[1:]]
        if head.startswith("t") and head[1:].isdecimal():
            arity = int(head[1:])
            if arity < 1:
                raise CircuitSyntaxError(f"gate {head!r} acts on no qubit; tK needs K >= 1", lineno)
            if arity != len(operands):
                raise CircuitSyntaxError(
                    f"gate {head!r} expects {arity} operands, got {len(operands)}", lineno
                )
            if arity == 1:
                labels.append("not")
                ends.append((-1, operands[0]))
            elif arity == 2:
                if operands[0] == operands[1]:
                    raise CircuitSyntaxError("control and target must differ", lineno)
                labels.append("cnot")
                ends.append((operands[0], operands[1]))
            else:
                if not decompose_mct:
                    raise UnsupportedGateError(
                        f"{arity}-qubit gate {head!r} needs decompose_mct to import", lineno
                    )
                *controls, target = operands
                for c in controls:
                    if c == target:
                        raise CircuitSyntaxError("control and target must differ", lineno)
                    labels.append("cnot")
                    ends.append((c, target))
                decomposed = True
        elif head == "qubits":
            raise CircuitSyntaxError(
                f"gate label {tokens[0]!r} is reserved for the .qc header", lineno
            )
        elif len(operands) == 1:
            labels.append(head)
            ends.append((-1, operands[0]))
        else:
            raise UnsupportedGateError(
                f"gate {head!r} with {len(operands)} operands is not in the supported subset", lineno
            )
    if width is None:
        raise CircuitSyntaxError("missing .numvars header")
    return Circuit(width, labels, ends, name, decomposed)


def gen_qft(n: int, name: str | None = None) -> Circuit:
    """Generate the standard quantum Fourier transform gate list on n qubits.

    For each qubit qi: one Hadamard, then one controlled phase gate from every
    later qubit qj onto qi. Total n + n(n-1)/2 gates; every unordered qubit
    pair interacts exactly once.
    """
    if n < 1:
        raise ValueError("qft size must be >= 1")
    labels: list[str] = []
    ends: list[tuple[int, int]] = []
    for i in range(n):
        labels.append("h")
        ends.append((-1, i))
        for j in range(i + 1, n):
            labels.append(f"r{j - i + 1}")
            ends.append((j, i))
    return Circuit(n, labels, ends, name or f"qft{n}")


GENERATORS = {"qft": gen_qft}
