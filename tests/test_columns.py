"""The columnar circuit against the per-line references in ``parse_reference``:
the same columns and errors from ``parse_circuit``, the same rows from
``Trace.rows()``, and one equality for every way to build a circuit."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcpart import (
    Circuit,
    CircuitSyntaxError,
    PartitionAssignment,
    gen_qft,
    parse_circuit,
    render_circuit,
    trace_execution,
)
from qcpart import circuit
from qcpart.circuit import LINE_BREAKS, WHITESPACE, _code_points, _gate_line_error
from conftest import build_random_circuit
from parse_reference import reference_parse, reference_trace

# \udcff is a lone surrogate, which a label may hold
LABELS = ["cnot", "h", "foo", "R2", "qubitsx", "é", "x\udcffy", "a#b"]
# operands int() reads differently from a plain digit run, next to bad ones (a
# fullwidth 2 sits past U+3000); the 18- and 19-digit 3s and the 19-digit value
# past int64 straddle the longest digit run read without int()
ODD_OPERANDS = ["+3", "3_0", "0_2", "x", "0", "-1", "7", "٣", "２", "99999999999999999999999",
                "1.0", "0" * 17 + "3", "0" * 18 + "3", "9223372036854775808"]
# line separators: every str.splitlines break, \r\n included, and a space (one line);
# SPACES: str.split whitespace that does not break a line
SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
              "\u2029", " "]
SPACES = [" ", "\t", "  ", "\x1f", "\xa0", "\u3000"]
BAD_LINES = ["qubits 3", "QUBITS 2", "cnot", "cnot 1 2 3", "h x", "cnot 2 2", "cnot 1 +1",
             "h 0", "h 9", "cnot 1 3_0", "t 1 2 3 4", "cnot one 2", "qubits", "h -0"]


def outcome(parse, text):
    """What parsing ``text`` gives: the circuit's columns, or the error's
    type, message and line."""
    try:
        c = parse(text, name="t")
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return type(exc), str(exc), getattr(exc, "line", None)
    return c.width, c.labels, c.ends.tolist(), c.name


def operand(q, style):
    """A 1-based qubit index written in one of the spellings int() accepts,
    the last two zero-padded to 18 and 19 digits."""
    return [str(q), f"+{q}", f"0{q}", f" {q}", "_".join(str(q)) if q >= 10 else str(q),
            f"{q:018}", f"{q:019}"][style]


@st.composite
def qc_texts(draw):
    """A valid ``.qc`` text in varied layout, possibly with one line mutated."""
    width = draw(st.integers(1, 12))
    lines = [draw(st.sampled_from(["qubits", "QUBITS", "Qubits"])) + f" {width}"]
    for _ in range(draw(st.integers(0, 12))):
        label = draw(st.sampled_from(LABELS[:-1]))
        if width >= 2 and draw(st.booleans()):
            c, t = draw(st.lists(st.integers(1, width), min_size=2, max_size=2, unique=True))
            qs = [c, t]
        else:
            qs = [draw(st.integers(1, width))]
        style = draw(st.integers(0, 6))
        lines.append(draw(st.sampled_from(SPACES)).join([label] + [operand(q, style) for q in qs]))
    for _ in range(draw(st.integers(0, 3))):  # blank, whitespace and comment lines
        pos = draw(st.integers(0, len(lines)))
        lines.insert(pos, draw(st.sampled_from(["", "   ", "\t", "# note", "  # cnot 1 2"])))
    lines = [line + draw(st.sampled_from(["", "  ", " # tail", "\t#", "#x", "\xa0#\u3000h 1"]))
             for line in lines]
    mutation = draw(st.sampled_from(["none", "bad", "odd", "drop_header", "second_bad"]))
    if mutation == "bad":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BAD_LINES)))
    elif mutation == "odd":
        words = [draw(st.sampled_from(LABELS))]
        words += draw(st.lists(st.sampled_from(ODD_OPERANDS), max_size=3))
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(SPACES)).join(words))
    elif mutation == "drop_header":
        lines = [line for line in lines if "qubits" not in line.lower().split("#")[0]]
    elif mutation == "second_bad":  # two bad lines: the first one is reported
        for _ in range(2):
            lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(BAD_LINES)))
    sep = draw(st.sampled_from(SEPARATORS))
    return sep.join(lines) + draw(st.sampled_from(["", sep]))


@settings(max_examples=400, deadline=None)
@given(qc_texts())
def test_parse_matches_reference(text):
    assert outcome(parse_circuit, text) == outcome(reference_parse, text)


def test_character_classes_match_str():
    # the tokenizer's literal code point sets against str.split and str.splitlines
    every = [chr(c) for c in range(0x110000)]
    assert set(WHITESPACE) == {ord(ch) for ch in every if ch.isspace()}
    assert set(LINE_BREAKS) == {ord(ch) for ch in every if len(f"a{ch}b".splitlines()) == 2}
    assert len(WHITESPACE) == 29 and len(LINE_BREAKS) == 10


@pytest.mark.parametrize("text", [
    "".join(map(chr, range(128))),  # read as uint8 bytes
    "".join(map(chr, range(0x110000))),  # read as UTF-32 code points, surrogates too
])
def test_code_point_classes_match_str(text):
    # both encodings the tokenizer classes characters in, against str
    codes, space, breaks = _code_points(text)
    assert codes.tolist() == list(map(ord, text))
    assert space[1:-1].tolist() == [ch.isspace() for ch in text]
    assert space[0] and space[-1]
    assert breaks.tolist() == [i for i, ch in enumerate(text) if len(f"a{ch}b".splitlines()) == 2]


@pytest.mark.parametrize("text", [
    "", "   \n# only\n", "qubits", "qubits 0", "qubits -2", "qubits x", "qubits 2 3",
    "cnot 1 2\nqubits 2", "qubits 2\nqubits 2", "qubits 3\nqUbItS 1",
    "qubits 3\ncnot 1 2\r\nh 3\r\ncnot 1 4", "qubits 3\ncnot\nh 4", "qubits 3\nh 4\ncnot",
    "qubits 3\ncnot 2 2", "qubits 3\ncnot 1 99999999999999999999999",
    "qubits 99999999999999999999999\ncnot 1 2", "qubits 2\nh 1\nh x y z",
    "qubits 2\nh 1 # c\n\n cnot 2 1\x0b", "qubits 31\ncnot 3_0 +31\nh 0_1",
    "qubits 2\nh 1\nh", "qubits 2\nh 1\nh 1 1",
    "qubits 3\ncnot 000000000000000003 1\nh 0000000000000000002",
    "qubits 3\nh 9223372036854775808", "qubits 3\nh 9223372036854775807\r\n",
    "qubits 2\x85h 1#c\u2028h\xa02\x1f#\u3000x\r\nh\u30001\x1c\x1dh 3",
    # Circuit refuses the first bad gate, row or label: both name line 2
    "qubits 3\nqubits 1\ncnot 1 9\n", "qubits 3\ncnot 1 9\nqubits 1\n",
    "qubits 3\ncnot 0 3",  # a control of 0 must not pass for a single-qubit gate's -1
])
def test_parse_edge_cases_match_reference(text):
    assert outcome(parse_circuit, text) == outcome(reference_parse, text)


def test_a_bad_line_is_explained_once(monkeypatch):
    # the gates are checked over whole columns; only the refused gate's line is read again
    calls = []

    def counted(tokens, width):
        calls.append(tokens)
        return _gate_line_error(tokens, width)

    monkeypatch.setattr(circuit, "_gate_line_error", counted)
    text = "qubits 3\n" + "cnot 1 2\nh 3\n" * 49_999 + "h 4\ncnot 2 1\n"  # 100 000 gates
    with pytest.raises(CircuitSyntaxError, match="qubit index 4 outside") as exc:
        parse_circuit(text)
    assert exc.value.line == 100_000 and calls == [["h", "4"]]


def test_parsed_columns():
    c = parse_circuit("qubits 3\ncnot 1 3\nh 2\nfoo 3 2\n")
    assert c.labels == ("cnot", "h", "foo")
    assert c.ends.dtype == np.int64 and c.ends.tolist() == [[0, 2], [-1, 1], [2, 1]]
    assert not c.ends.flags.writeable
    assert c.size == 3 and c.two_qubit_count == 2
    assert parse_circuit("qubits 2").ends.shape == (0, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_trace_matches_reference(n, n_gates, seed):
    rng = np.random.default_rng(seed)
    c = build_random_circuit(rng, n, n_gates)
    c = parse_circuit(render_circuit(c).replace("cnot", "xé", n_gates // 3))
    labels = rng.integers(0, rng.integers(1, n + 1), size=n)
    a = PartitionAssignment.from_labels(labels)
    rows = list(trace_execution(c, a).rows())
    assert rows == reference_trace(c, a)
    for gate, _, _, parts, teleports in rows:
        assert all(type(p) is int for p in parts)
        assert type(gate) is int and type(teleports) is int


def test_every_constructor_gives_one_circuit():
    text = "qubits 4\ncnot 1 2\nh 4\nr2 3 1\n"
    built = Circuit(4, ("cnot", "h", "r2"), [(0, 1), (-1, 3), (2, 0)], "c")
    parsed = parse_circuit(text, name="c")
    columns = Circuit(4, ["cnot", "h", "r2"], np.array([[0, 1], [-1, 3], [2, 0]]), name="c")
    assert built == parsed == columns
    assert hash(built) == hash(parsed) == hash(columns)
    assert built.labels == ("cnot", "h", "r2") and type(columns.labels) is tuple
    assert len({built, parsed, columns}) == 1
    assert parsed != parse_circuit(text, name="d")
    assert parsed != parse_circuit(text.replace("r2", "r3"), name="c")
    assert parsed != parse_circuit(text.replace("r2 3 1", "r2 1 3"), name="c")
    assert parsed != parse_circuit(text.replace("qubits 4", "qubits 5"), name="c")
    assert parse_circuit(render_circuit(gen_qft(5)), name="qft5") == gen_qft(5)


def test_column_checks():
    with pytest.raises(ValueError, match="width must be >= 1"):
        Circuit(0, [], [])
    with pytest.raises(ValueError, match=r"shape \(1, 3\); expected \(1, 2\)"):
        Circuit(3, ["x"], [(0, 1, 2)])
    with pytest.raises(ValueError, match="gate g2 touches q4, outside width 3"):
        Circuit(3, ["h", "cnot"], [(-1, 0), (3, 1)])
    with pytest.raises(ValueError, match="gate g1 touches q-1, outside width 3"):
        Circuit(3, ["cnot"], [(-2, 1)])
    with pytest.raises(ValueError, match="gate g1: control equals target"):
        Circuit(3, ["cnot"], [(1, 1)])
    with pytest.raises(ValueError, match="gate g1 touches q4"):  # control before target
        Circuit(2, ["cnot"], [(3, 5)])
    # the first bad gate is refused, whether its row or its label is bad
    with pytest.raises(ValueError, match=r"^gate g2: label 'Qubits' is reserved") as exc:
        Circuit(3, ["h", "Qubits", "cnot"], [(-1, 0), (-1, 1), (0, 5)])
    assert exc.value.gate == 1
    with pytest.raises(ValueError, match="^gate g2 touches q6, outside width 3$") as exc:
        Circuit(3, ["h", "cnot", "qubits"], [(-1, 0), (0, 5), (-1, 1)])
    assert exc.value.gate == 1
    # the int64 copy of the columns must not truncate a fraction
    with pytest.raises(ValueError, match="qubit indices must be integers"):
        Circuit(3, ["cnot"], [(0.5, 1.9)])
    assert Circuit(3, ["cnot"], [(0.0, 2.0)]).ends.tolist() == [[0, 2]]


def test_width_must_be_an_integer():
    for width in (2.5, "3", 3.0, None):
        with pytest.raises(ValueError, match="circuit width must be an integer"):
            Circuit(width, ["cnot"], [(0, 1)])
    c = Circuit(np.int64(3), ["cnot"], [(0, 2)])
    assert c.width == 3 and type(c.width) is int
    assert c == Circuit(3, ["cnot"], [(0, 2)])


def test_non_finite_ends_raise_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="qubit indices must be integers"):
                Circuit(3, ["cnot", "h"], [(0, 1), (-1, bad)])


def test_replace_keeps_the_columns_and_rechecks_them():
    c = parse_circuit("qubits 3\ncnot 1 3\nh 2\n", name="c")
    renamed = dataclasses.replace(c, name="x")
    assert renamed.name == "x" and renamed != c
    assert (renamed.width, renamed.labels, renamed.ends.tolist()) == (3, c.labels, [[0, 2], [-1, 1]])
    assert not renamed.ends.flags.writeable
    assert dataclasses.replace(renamed, name="c") == c
    with pytest.raises(ValueError, match="gate g1 touches q3, outside width 1"):
        dataclasses.replace(c, width=1)
