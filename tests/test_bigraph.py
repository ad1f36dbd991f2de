import numpy as np
import pytest

from qcpart import (
    PartitionAssignment,
    WeightMatrix,
    assignment_cost,
    bigraph_to_dot,
    gen_qft,
    parse_circuit,
    qc_to_bigraph,
    trace_execution,
    weight_matrix,
)
from conftest import build_random_circuit


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
    assert g.gate_endpoints() == [(0,)]


def test_conversion_is_deterministic():
    text = "qubits 3\ncnot 1 2\nh 3\ncnot 2 3\n"
    assert qc_to_bigraph(parse_circuit(text)) == qc_to_bigraph(parse_circuit(text))


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
        n_global = sum(e.is_global for e in trace_execution(c, a))
        assert n_global == assignment_cost(a, w)


def test_dot_export(circ3):
    dot = bigraph_to_dot(qc_to_bigraph(circ3), "sample3")
    assert dot.startswith('graph "sample3" {')
    assert "g1 -- q1;" in dot and "g3 -- q3;" in dot
    assert dot.count("--") == 6
    assert "rank=same" in dot
