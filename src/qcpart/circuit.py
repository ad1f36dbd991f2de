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

Tokens are separated by ``str.split`` whitespace and lines end at
``str.splitlines`` breaks, so ``\\r\\n`` ends one line. Blank lines are ignored,
and a ``#`` comment runs to the end of its line. The parser tokenizes the whole
text in one pass. Labels are opaque: only the number of operands matters
downstream, so unknown labels are accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

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
        try:  # each distinct label is checked once
            distinct = dict.fromkeys(labels)
        except TypeError:  # an unhashable label is no str: find the first bad one
            distinct = {None: None}
        if not all(map(_one_word, distinct)):
            i, label = next((i, s) for i, s in enumerate(labels) if not _one_word(s))
            raise ValueError(f"gate g{i + 1}: label {label!r} is not one word without '#'")
        if any(s.lower() == "qubits" for s in distinct):  # the .qc header word, in any case
            i = next(i for i, s in enumerate(labels) if s.lower() == "qubits")
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


def _one_word(label) -> bool:
    """Whether ``label`` is a str that ``.qc`` text keeps as one token."""
    return isinstance(label, str) and "#" not in label and label.split() == [label]


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


# The code points str.split() splits on (str.isspace) and those that end a
# line for str.splitlines(); the tokenizer classes characters by them.
WHITESPACE = (0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E, 0x1F, 0x20, 0x85, 0xA0, 0x1680,
              *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000)
LINE_BREAKS = (0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E, 0x85, 0x2028, 0x2029)
# bit 1: whitespace, bit 2: line break; every code point past the table reads 0
_CLASS = np.zeros(max(WHITESPACE) + 2, np.uint8)
_CLASS[list(WHITESPACE)] = 1
_CLASS[list(LINE_BREAKS)] |= 2


def _code_points(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The text's code points, its whitespace mask padded with True at both
    ends, and the positions of its line-break characters."""
    space = np.ones(len(text) + 2, bool)
    if text.isascii():  # _CLASS's ASCII part as uint8 arithmetic, faster than a lookup
        codes = np.frombuffer(text.encode("ascii"), np.uint8)
        np.less(codes - 9, 5, out=space[1:-1])  # tab to CR; uint8 wraps below 9
        space[1:-1] |= (codes - 28) < 5  # the four separators and space
        breaks = np.flatnonzero(((codes - 10) < 4) | ((codes - 28) < 3))
    else:  # a lone surrogate is a legal label character, so pass it through
        codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32)
        kind = _CLASS.take(np.minimum(codes, len(_CLASS) - 1))
        np.not_equal(kind, 0, out=space[1:-1])
        breaks = np.flatnonzero(kind & 2)
    return codes, space, breaks


def parse_circuit(text: str, name: str = "circuit") -> Circuit:
    """Parse ``.qc`` text into a Circuit. Gate order equals line order.

    Tokens are split on ``str.split`` whitespace, lines end at
    ``str.splitlines`` breaks (``\\r\\n`` is one break), and a ``#`` comment
    runs to the end of its line. The whole text is tokenized in one pass over
    its code points and the gate lines are checked together over arrays,
    with no Python loop over lines or gates; operands are read as ``int()``
    reads them. Raises CircuitSyntaxError with a 1-based line number on
    malformed input, an out-of-range qubit index, a missing ``qubits``
    header, or a two-qubit gate whose control equals its target; when
    several lines are bad, the first one in line order is reported, for the
    first check it fails.
    """
    codes, space, breaks = _code_points(text)
    if "#" in text:  # blank each line's first '#' and the rest of its line
        hashes = np.flatnonzero(codes == 35)
        end = np.append(breaks, codes.size)[np.searchsorted(breaks, hashes)]  # next break
        first = np.append(True, end[1:] != end[:-1])
        hashes, size = hashes[first], (end - hashes)[first]
        blank = np.repeat(hashes - np.cumsum(size) + size, size) + np.arange(size.sum())
        codes = codes.copy()
        codes[blank] = 32
        space[blank + 1] = True
        text = codes.tobytes().decode("utf-32-le" if codes.itemsize == 4 else "ascii",
                                      "surrogatepass")
    words = text.split()  # str.split agrees with the whitespace mask token for token
    edges = np.flatnonzero(space[1:] != space[:-1])  # token starts and stops alternate
    starts, stops = edges[0::2], edges[1::2]
    if not words:
        raise CircuitSyntaxError("missing 'qubits <n>' header")
    opens = np.zeros(len(words) + 1, bool)  # the token opens its line (the extra
    opens[np.searchsorted(starts, breaks)] = True  # slot takes breaks after the last)
    opens[0] = True
    opens = opens[:-1]
    bounds = np.append(np.flatnonzero(opens), len(words))  # each significant line's tokens

    def row(r: int) -> tuple[list[str], int]:
        """Line r's tokens and its 1-based number, counting ``\\r\\n`` once."""
        at = int(starts[bounds[r]])
        lineno = int(np.searchsorted(breaks, at)) - text.count("\r\n", 0, at) + 1
        return words[bounds[r]:bounds[r + 1]], lineno

    width = _header_width(*row(0))
    body = bounds[1:-1]  # the gate lines' first tokens
    arity = np.diff(bounds[1:]) - 1
    labels = tuple(map(words.__getitem__, body.tolist()))
    operand = ~opens
    operand[:bounds[1]] = False  # the header's count
    o = np.flatnonzero(operand)  # the operands' token indices
    o_start = starts[o]
    o_len = stops[o] - o_start
    digit = codes[o_start] - 48  # wraps to above 9 unless an ASCII digit
    q = digit.astype(np.int64)
    plain = (digit < 10) & (o_len <= 18)  # at most 18 ASCII digits, which fit int64
    for k in range(1, min(o_len.max(initial=0), 18)):  # digit k of the longer operands
        more = np.flatnonzero(o_len > k)
        digit = codes[o_start[more] + k] - 48
        plain[more] &= digit < 10
        q[more] = q[more] * 10 + digit
    slow = np.flatnonzero(~plain)  # a sign, '_', another digit or 19+ characters
    if slow.size:
        q[slow] = [_int_or_zero(words[i]) for i in o[slow].tolist()]
    q = np.append(q, (0, 0))  # a line without operands reads zeros; arity flags it
    start = np.cumsum(arity) - arity  # each line's first operand in q
    lead, second = q[start], q[start + 1]
    two = arity == 2
    bad = ((arity < 1) | (arity > 2) | (lead < 1) | (lead > width)
           | two & ((second < 1) | (second > width) | (lead == second)))
    headers = {label for label in set(labels) if label.lower() == "qubits"}
    if headers:
        bad |= np.fromiter((label in headers for label in labels), bool, count=len(labels))
    if bad.any():
        i = int(np.argmax(bad))
        tokens, lineno = row(i + 1)
        raise CircuitSyntaxError(_gate_line_error(tokens, width), lineno)
    ends = np.stack([np.where(two, lead, 0), np.where(two, second, lead)], axis=1) - 1
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
            elif arity > 2 and not decompose_mct:
                raise UnsupportedGateError(
                    f"{arity}-qubit gate {head!r} needs decompose_mct to import", lineno
                )
            else:  # one CNOT per control: a t2 is a CNOT, a longer tK an approximation
                *controls, target = operands
                if target in controls:
                    raise CircuitSyntaxError("control and target must differ", lineno)
                for c in controls:
                    labels.append("cnot")
                    ends.append((c, target))
                if arity > 2:
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
