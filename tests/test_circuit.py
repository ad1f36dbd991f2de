import numpy as np
import pytest
from hypothesis import given, strategies as st

from qcpart import (
    Circuit,
    CircuitSyntaxError,
    UnsupportedGateError,
    gen_qft,
    import_real,
    parse_circuit,
    render_circuit,
)
from conftest import SAMPLE3, build_random_circuit


def test_parse_three_qubit_sample():
    c = parse_circuit(SAMPLE3)
    assert c.width == 3
    assert c.size == 3
    assert c.labels == ("cnot", "cnot", "cnot")
    # 1-based file indices land 0-based internally, control first
    assert c.ends.tolist() == [[0, 2], [0, 2], [1, 2]]


def test_parse_empty_circuit():
    c = parse_circuit("qubits 1")
    assert c.width == 1 and c.labels == () and c.ends.shape == (0, 2)


def test_parse_accepts_comments_blank_lines_and_crlf():
    text = "# header comment\r\nqubits 2\r\n\r\ncnot 1 2  # inline\r\nh 2\r\n"
    c = parse_circuit(text)
    assert c.size == 2
    assert c.ends[1].tolist() == [-1, 1]


def test_parse_unknown_labels_by_arity():
    c = parse_circuit("qubits 3\nfoo 2\nbar 1 3")
    assert c.ends[:, 0].tolist() == [-1, 0]  # control -1: a single-qubit gate


def test_parse_self_loop_rejected():
    with pytest.raises(CircuitSyntaxError) as exc:
        parse_circuit("qubits 2\ncnot 1 1")
    assert exc.value.line == 2


def test_parse_missing_header():
    with pytest.raises(CircuitSyntaxError, match="header"):
        parse_circuit("cnot 1 2")
    with pytest.raises(CircuitSyntaxError, match="header"):
        parse_circuit("")


def test_parse_duplicate_header():
    with pytest.raises(CircuitSyntaxError, match="duplicate"):
        parse_circuit("qubits 2\nqubits 3\n")


def test_parse_out_of_range_index():
    with pytest.raises(CircuitSyntaxError, match="outside declared range"):
        parse_circuit("qubits 2\ncnot 1 3")
    with pytest.raises(CircuitSyntaxError, match="outside declared range"):
        parse_circuit("qubits 2\nh 0")


def test_parse_malformed_lines():
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("qubits x")
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("qubits 0")
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("qubits 3\ncnot 1 2 3")
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("qubits 3\ncnot")
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("qubits 3\ncnot one 2")


def test_circuit_invariants():
    with pytest.raises(ValueError):
        Circuit(width=0)
    with pytest.raises(ValueError):
        Circuit(width=1, labels=["cnot"], ends=[(0, 1)])  # out of width


@pytest.mark.parametrize("label", ["#x", "a#", "a b", "", " h", "h\n", " ", "\x1f", 1, None,
                                   ["h"]])
def test_circuit_rejects_labels_that_break_the_text(label):
    # each would drop a gate on round trip, fail the parse or break the trace
    with pytest.raises(ValueError, match=r"^gate g2: label .* is not one word without '#'$"):
        Circuit(3, ["cnot", label, "h", label], [(0, 1), (-1, 2), (-1, 0), (-1, 1)])


@pytest.mark.parametrize("label", ["qubits", "QUBITS", "Qubits"])
def test_circuit_rejects_the_header_word(label):
    # render_circuit would write it as a second header, which parse_circuit rejects
    with pytest.raises(ValueError, match=r"^gate g2: label .* is reserved for the header$"):
        Circuit(2, ["h", label], [(-1, 0), (-1, 1)])
    with pytest.raises(CircuitSyntaxError, match="line 5: gate label .* is reserved"):
        import_real(REAL_HEADER + f"t2 a b\n{label} a\n")


def test_circuit_accepts_labels_that_need_escaping():
    labels = ["é", 'a"b', "\\", "\x00\x7f", "\x08", "qubitsx"]
    c = Circuit(2, labels, [(-1, 0)] * len(labels))
    assert c.labels == tuple(labels)
    assert parse_circuit(render_circuit(c)) == c


def test_round_trip_fixed():
    text = "qubits 4\ncnot 1 2\nh 3\nr2 4 1\n"
    c = parse_circuit(text)
    assert render_circuit(c) == text
    assert parse_circuit(render_circuit(c)) == c


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=30),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_round_trip_random(n, n_gates, seed):
    c = build_random_circuit(np.random.default_rng(seed), n, n_gates)
    again = parse_circuit(render_circuit(c))
    assert again.width == c.width
    assert again.labels == c.labels and (again.ends == c.ends).all()


def test_qft_sizes():
    assert gen_qft(1).size == 1
    assert gen_qft(3).size == 6
    c = gen_qft(4)
    assert c.size == 10
    assert c.two_qubit_count == 6
    assert c.width == 4
    assert c.name == "qft4"


def test_qft_every_pair_once():
    for n in (2, 3, 5, 7):
        pairs = [frozenset(e) for e in gen_qft(n).ends.tolist() if e[0] >= 0]
        assert len(pairs) == n * (n - 1) // 2
        assert len(set(pairs)) == len(pairs)


def test_qft_three_qubit_pairs():
    pairs = {frozenset(e) for e in gen_qft(3).ends.tolist() if e[0] >= 0}
    assert pairs == {frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})}


def test_qft_rejects_non_positive():
    with pytest.raises(ValueError):
        gen_qft(0)


REAL_HEADER = ".numvars 3\n.variables a b c\n.begin\n"


def test_import_real_basic_gates():
    c = import_real(REAL_HEADER + "t2 a b\nt1 c\nh a\n.end\n")
    assert c.width == 3
    assert c.labels == ("cnot", "not", "h")
    assert c.ends.tolist() == [[0, 1], [-1, 2], [-1, 0]]
    assert not c.decomposed_mct


def test_import_real_rejects_toffoli_without_flag():
    with pytest.raises(UnsupportedGateError, match="decompose_mct"):
        import_real(REAL_HEADER + "t3 a b c\n.end\n")


def test_import_real_decomposes_toffoli_pairwise():
    c = import_real(REAL_HEADER + "t3 a b c\n.end\n", decompose_mct=True)
    assert c.labels == ("cnot", "cnot") and c.ends.tolist() == [[0, 2], [1, 2]]
    assert c.decomposed_mct
    with pytest.raises(CircuitSyntaxError, match="line 4: control and target must differ"):
        import_real(REAL_HEADER + "t3 a b a\n", decompose_mct=True)


def test_import_real_decomposition_preserves_touched_qubits():
    text = ".numvars 5\n.variables a b c d e\n.begin\nt4 a b c d\nt3 e a b\n.end\n"
    c = import_real(text, decompose_mct=True)
    # first source gate touched {a,b,c,d}, second {e,a,b}
    touched = [set(), set()]
    for e in c.ends[:3].tolist():
        touched[0] |= set(e)
    for e in c.ends[3:].tolist():
        touched[1] |= set(e)
    assert touched == [{0, 1, 2, 3}, {4, 0, 1}]


def test_import_real_header_errors():
    with pytest.raises(CircuitSyntaxError, match="numvars"):
        import_real(".variables a b\nt2 a b\n")
    with pytest.raises(CircuitSyntaxError, match="missing .numvars"):
        import_real("# nothing\n")
    with pytest.raises(CircuitSyntaxError, match="lists"):
        import_real(".numvars 3\n.variables a b\n")
    with pytest.raises(CircuitSyntaxError, match="unknown variable"):
        import_real(REAL_HEADER + "t2 a z\n")


@pytest.mark.parametrize("text, message", [
    (".numvars\n", r"line 1: \.numvars expects one integer"),
    (".numvars three\n", r"line 1: bad \.numvars value 'three'"),
    (".numvars 0\n", r"line 1: \.numvars must be >= 1"),
    (".numvars 2\nt2 a b\n.variables a b\n", "line 2: gate line before .numvars/.variables"),
    (REAL_HEADER + "t3 a b\n", "line 4: gate 't3' expects 3 operands, got 2"),
    (REAL_HEADER + "t2 a a\n", "line 4: control and target must differ"),
    (REAL_HEADER + "t3 a b a\n", "line 4: control and target must differ"),
    (REAL_HEADER + "t3 a a b\n", "line 4: controls must be distinct"),
    (REAL_HEADER + "t3 a a a\n", "line 4: control and target must differ"),
])
def test_import_real_line_errors(text, message):
    for decompose in (False, True):
        with pytest.raises(CircuitSyntaxError, match=message):
            import_real(text, decompose_mct=decompose)


def test_import_real_rejects_duplicate_variables():
    with pytest.raises(CircuitSyntaxError, match=r"line 2: variable 'a' is already defined"):
        import_real(".numvars 3\n.variables a a b\nt2 a b\n")
    # a second .variables line used to alias qubits: d, e and f renamed q1..q3
    text = ".numvars 3\n.variables a b c\n.variables d e f\nt2 a e\n"
    with pytest.raises(CircuitSyntaxError, match=r"line 3: duplicate \.variables") as exc:
        import_real(text)
    assert exc.value.line == 3


def test_import_real_rejects_duplicate_numvars():
    # a second .numvars used to shrink the width under the declared variables
    text = ".numvars 3\n.variables a b c\n.numvars 2\nt2 a c\n"
    with pytest.raises(CircuitSyntaxError, match=r"line 3: duplicate \.numvars") as exc:
        import_real(text)
    assert exc.value.line == 3
    with pytest.raises(CircuitSyntaxError, match="duplicate .numvars"):
        import_real(".numvars 2\n.numvars 2\n.variables a b\nt2 a b\n")


def test_import_real_tk_heads():
    # tK is a K-qubit Toffoli only for a decimal K >= 1
    for decompose in (False, True):
        for line in ("t0", "t0 a", "t00 a b"):
            with pytest.raises(CircuitSyntaxError, match=r"line 4: gate 't0+' acts on no qubit"):
                import_real(REAL_HEADER + line + "\n", decompose_mct=decompose)
    c = import_real(REAL_HEADER + "t\u00b2 a\nt2 b c\n")  # superscript two is a plain label
    assert c.labels == ("t\u00b2", "cnot")
    assert c.ends.tolist() == [[-1, 0], [1, 2]]


def test_import_real_stops_at_end_and_ignores_directives():
    text = (".version 1.0\n.numvars 2\n.variables a b\n.inputs a b\n"
            ".begin\nt2 a b\n.end\nt2 b a\n")
    assert import_real(text).size == 1


def test_import_real_unsupported_two_operand_gate():
    with pytest.raises(UnsupportedGateError):
        import_real(REAL_HEADER + "f2 a b\n.end\n")
