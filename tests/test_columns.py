"""The columnar circuit against the per-line references in ``parse_reference``:
the same columns and errors from ``parse_circuit``, the same entries from
``trace_execution``, and one equality for every way to build a circuit."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcpart import (
    Circuit,
    PartitionAssignment,
    gen_qft,
    parse_circuit,
    render_circuit,
    trace_execution,
)
from conftest import build_random_circuit
from parse_reference import reference_parse, reference_trace

LABELS = ["cnot", "h", "foo", "R2", "qubitsx", "é", "a#b"]
# operands int() reads differently from a plain digit run, next to bad ones
ODD_OPERANDS = ["+3", "3_0", "0_2", "x", "0", "-1", "7", "٣", "99999999999999999999999", "1.0"]
SEPARATORS = ["\n", "\r\n", "\r", "\x0b", " "]
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
    """A 1-based qubit index written in one of the spellings int() accepts."""
    return [str(q), f"+{q}", f"0{q}", f" {q}", "_".join(str(q)) if q >= 10 else str(q)][style]


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
        style = draw(st.integers(0, 4))
        lines.append(" ".join([label] + [operand(q, style) for q in qs]))
    for _ in range(draw(st.integers(0, 3))):  # blank, whitespace and comment lines
        pos = draw(st.integers(0, len(lines)))
        lines.insert(pos, draw(st.sampled_from(["", "   ", "\t", "# note", "  # cnot 1 2"])))
    lines = [line + draw(st.sampled_from(["", "  ", " # tail", "\t#"])) for line in lines]
    mutation = draw(st.sampled_from(["none", "bad", "odd", "drop_header", "second_bad"]))
    if mutation == "bad":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BAD_LINES)))
    elif mutation == "odd":
        words = [draw(st.sampled_from(LABELS))]
        words += draw(st.lists(st.sampled_from(ODD_OPERANDS), max_size=3))
        lines.insert(draw(st.integers(1, len(lines))), " ".join(words))
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


@pytest.mark.parametrize("text", [
    "", "   \n# only\n", "qubits", "qubits 0", "qubits -2", "qubits x", "qubits 2 3",
    "cnot 1 2\nqubits 2", "qubits 2\nqubits 2", "qubits 3\nqUbItS 1",
    "qubits 3\ncnot 1 2\r\nh 3\r\ncnot 1 4", "qubits 3\ncnot\nh 4", "qubits 3\nh 4\ncnot",
    "qubits 3\ncnot 2 2", "qubits 3\ncnot 1 99999999999999999999999",
    "qubits 99999999999999999999999\ncnot 1 2", "qubits 2\nh 1\nh x y z",
    "qubits 2\nh 1 # c\n\n cnot 2 1\x0b", "qubits 31\ncnot 3_0 +31\nh 0_1",
    "qubits 2\nh 1\nh", "qubits 2\nh 1\nh 1 1",
])
def test_parse_edge_cases_match_reference(text):
    assert outcome(parse_circuit, text) == outcome(reference_parse, text)


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
    trace, ref = trace_execution(c, a), reference_trace(c, a)
    assert len(trace) == len(ref)
    for entry, expected in zip(trace, ref):
        assert entry == expected
        assert all(type(p) is int for p in entry.parts)
        assert type(entry.gate_ordinal) is int and type(entry.teleports_so_far) is int


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
