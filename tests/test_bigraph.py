import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qcpart import (
    BipartiteGraph,
    Circuit,
    PartitionAssignment,
    WeightMatrix,
    assignment_cost,
    bigraph_to_dot,
    gen_qft,
    parse_circuit,
    qc_to_bigraph,
    render_circuit,
    trace_execution,
    weight_matrix,
)
from conftest import build_random_circuit
from parse_reference import reference_dot, reference_pairs, reference_qc_to_bigraph, reference_weights


def test_three_qubit_sample_edge_set(circ3):
    g = qc_to_bigraph(circ3)
    assert set(g.edges) == {(0, 0), (0, 2), (1, 0), (1, 2), (2, 1), (2, 2)}
    assert g.num_vertices == 3 + 3


def test_edges_follow_gate_order(circ3):
    g = qc_to_bigraph(circ3)
    assert [e[0] for e in g.edges] == [0, 0, 1, 1, 2, 2]


def test_empty_circuit_graph():
    g = qc_to_bigraph(parse_circuit("qubits 2"))
    assert g.num_qubits == 2 and g.num_gates == 0 and g.edges == ()


def test_single_qubit_gate_degree():
    g = qc_to_bigraph(parse_circuit("qubits 2\nh 1"))
    assert g.edges == ((0, 0),)
    assert g.pairs.shape == (0, 2)  # a degree-1 gate vertex joins no qubit pair
    g = qc_to_bigraph(parse_circuit("qubits 3\nh 3\ncnot 3 1\nx 2\ncnot 1 2"))
    assert g.edges == ((0, 2), (1, 2), (1, 0), (2, 1), (3, 0), (3, 1))
    assert g.pairs.tolist() == [[2, 0], [0, 1]]


def test_conversion_is_deterministic():
    text = "qubits 3\ncnot 1 2\nh 3\ncnot 2 3\n"
    assert qc_to_bigraph(parse_circuit(text)) == qc_to_bigraph(parse_circuit(text))


def test_graph_equality_is_width_and_ends():
    text = "qubits 3\ncnot 1 2\nh 3\ncnot 2 3\n"
    g = qc_to_bigraph(parse_circuit(text, name="a"))
    relabeled = qc_to_bigraph(parse_circuit(text.replace("cnot", "cz").replace("h", "x"), "b"))
    assert g == relabeled and hash(g) == hash(relabeled) and len({g, relabeled}) == 1
    for changed in (text.replace("qubits 3", "qubits 4"), text.replace("cnot 2 3", "cnot 3 2"),
                    text.replace("h 3", "h 2"), text.replace("h 3", "cnot 1 3")):
        assert g != qc_to_bigraph(parse_circuit(changed))
    assert g != parse_circuit(text)


def test_graph_is_a_read_only_view_of_the_circuit(circ4h):
    g = BipartiteGraph(circ4h)
    assert g.ends is circ4h.ends and not g.ends.flags.writeable
    assert g == qc_to_bigraph(circ4h)
    with pytest.raises(AttributeError):
        g.num_qubits = 5


@st.composite
def circuits(draw):
    """Circuits built from column lists, from a numpy array or by parsing;
    some have only single-qubit gates, and any may have none."""
    width = draw(st.integers(1, 10))
    arities = (1,) if width == 1 or draw(st.booleans()) else (1, 2)
    qubits = [tuple(draw(st.lists(st.integers(0, width - 1), min_size=k, max_size=k, unique=True)))
              for k in draw(st.lists(st.sampled_from(arities), max_size=40))]
    circuit = Circuit(width, ["cnot" if len(q) == 2 else "h" for q in qubits],
                      [q if len(q) == 2 else (-1, *q) for q in qubits])
    return draw(st.sampled_from([
        circuit,
        Circuit(width, circuit.labels, np.array(circuit.ends)),
        parse_circuit(render_circuit(circuit)),
    ]))


@given(circuits())
@example(Circuit(1))
@example(Circuit(3, ["h", "x"], [(-1, 2), (-1, 0)]))
@settings(max_examples=200, deadline=None)
def test_graph_matches_edge_tuple_reference(circuit):
    graph = qc_to_bigraph(circuit)
    ref = reference_qc_to_bigraph(circuit)
    assert (graph.num_qubits, graph.num_gates, graph.edges) == ref
    assert graph.num_vertices == ref.num_qubits + ref.num_gates
    pairs = reference_pairs(ref)
    assert graph.pairs.dtype == pairs.dtype and graph.pairs.shape == pairs.shape
    assert (graph.pairs == pairs).all()
    assert (weight_matrix(graph).m == reference_weights(ref)).all()
    assert bigraph_to_dot(graph, circuit.name) == reference_dot(ref, circuit.name)


def test_weight_matrix_four_qubit_sample(w4):
    expected = np.array([
        [0, 1, 1, 0],
        [1, 0, 2, 0],
        [1, 2, 0, 3],
        [0, 0, 3, 0],
    ])
    assert (w4.m == expected).all()
    assert w4.total_weight == 7


def test_weight_matrix_qft_all_ones():
    w = weight_matrix(qc_to_bigraph(gen_qft(4)))
    assert (w.m == 1 - np.eye(4, dtype=np.int64)).all()


def test_weight_matrix_single_qubit_only():
    w = weight_matrix(qc_to_bigraph(parse_circuit("qubits 3\nh 1\nh 2\nh 3")))
    assert not w.m.any()
    assert w.total_weight == 0


def test_weight_matrix_counts_two_qubit_gates():
    rng = np.random.default_rng(7)
    for _ in range(25):
        c = build_random_circuit(rng, int(rng.integers(1, 9)), int(rng.integers(0, 30)))
        w = weight_matrix(qc_to_bigraph(c))
        assert w.total_weight == c.two_qubit_count


def test_weight_matrix_validation():
    with pytest.raises(ValueError):
        WeightMatrix(np.array([[0, 1], [2, 0]]))  # asymmetric
    with pytest.raises(ValueError):
        WeightMatrix(np.array([[1, 0], [0, 0]]))  # diagonal
    with pytest.raises(ValueError):
        WeightMatrix(np.array([[0, -1], [-1, 0]]))  # negative
    with pytest.raises(ValueError):
        WeightMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="weights must be integers"):
        WeightMatrix(np.array([[0, 1.7], [1.7, 0]]))
    assert WeightMatrix(np.array([[0, 2.0], [2.0, 0]]))[0, 1] == 2
    with pytest.raises(ValueError, match="at least one qubit"):
        WeightMatrix(np.zeros((0, 0)))


def test_non_finite_weights_raise_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="weights must be integers"):
                WeightMatrix(np.array([[0, bad], [bad, 0]]))


def test_weight_matrix_is_read_only(w4):
    with pytest.raises(ValueError):
        w4.m[0, 1] = 9


def test_gate_scan_and_matrix_paths_agree():
    # global gates counted gate by gate by the executor must equal the cut
    # weight summed from the weight matrix, for random circuits under random
    # (not optimal) assignments: qubits in s1, in s2, or in neither
    rng = np.random.default_rng(99)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        c = build_random_circuit(rng, n, int(rng.integers(0, 35)))
        w = weight_matrix(qc_to_bigraph(c))
        full = (1 << n) - 1
        s1 = int(rng.integers(0, full + 1))
        s2full = full & ~s1
        s2 = int(rng.integers(0, full + 1)) & s2full
        a = PartitionAssignment.from_labels(
            [0 if (s1 >> q) & 1 else 1 if (s2 >> q) & 1 else 2 for q in range(n)])
        n_global = trace_execution(c, a).is_global.sum()
        assert n_global == assignment_cost(a, w)


def test_dot_export(circ3):
    dot = bigraph_to_dot(qc_to_bigraph(circ3), "sample3")
    assert dot.startswith('graph "sample3" {')
    assert "g1 -- q1;" in dot and "g3 -- q3;" in dot
    assert dot.count("--") == 6
    assert "rank=same" in dot


def test_dot_escapes_the_graph_name(circ3):
    dot = bigraph_to_dot(qc_to_bigraph(circ3), 'a"b\\c')
    assert dot.startswith('graph "a\\"b\\\\c" {\n')
    assert dot.split("\n", 1)[1] == bigraph_to_dot(qc_to_bigraph(circ3), "x").split("\n", 1)[1]
