import numpy as np
import pytest

from qcpart import Circuit, Gate, parse_circuit, qc_to_bigraph, subset_qubits, weight_matrix

# 3 qubits, 3 CNOTs: pairs (q1,q3) x2, (q2,q3) x1
SAMPLE3 = """qubits 3
cnot 1 3
cnot 1 3
cnot 2 3
"""

# 4 qubits, 7 CNOTs: pairs (q1,q2) x1, (q2,q3) x2, (q1,q3) x1, (q3,q4) x3
SAMPLE4 = """qubits 4
cnot 1 2
cnot 2 3
cnot 1 3
cnot 4 3
cnot 3 4
cnot 2 3
cnot 3 4
"""

# 4 qubits, 7 CNOTs + 2 Hadamards; q3 touches only one gate
SAMPLE4H = """qubits 4
cnot 1 2
cnot 3 1
cnot 1 4
h 4
cnot 4 2
h 2
cnot 2 4
cnot 1 2
cnot 4 1
"""


@pytest.fixture
def circ3():
    return parse_circuit(SAMPLE3, name="sample3")


@pytest.fixture
def circ4():
    return parse_circuit(SAMPLE4, name="sample4")


@pytest.fixture
def circ4h():
    return parse_circuit(SAMPLE4H, name="sample4h")


@pytest.fixture
def w3(circ3):
    return weight_matrix(qc_to_bigraph(circ3))


@pytest.fixture
def w4(circ4):
    return weight_matrix(qc_to_bigraph(circ4))


@pytest.fixture
def w4h(circ4h):
    return weight_matrix(qc_to_bigraph(circ4h))


def build_random_circuit(rng: np.random.Generator, n: int, n_gates: int,
                         name: str = "rand", p_single: float = 0.2) -> Circuit:
    """Random mix of CNOTs on distinct pairs and single-qubit gates."""
    gates = []
    for i in range(n_gates):
        if n >= 2 and rng.random() >= p_single:
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(Gate(i, "cnot", (int(a), int(b))))
        else:
            gates.append(Gate(i, "h", (int(rng.integers(n)),)))
    return Circuit(width=n, gates=tuple(gates), name=name)


@pytest.fixture
def make_random_circuit():
    return build_random_circuit


def connect(s1: int, s2: int, w) -> int:
    """Number of two-qubit gates with one endpoint in each of two disjoint
    qubit masks, summed pair by pair: the tests' crossing count."""
    if s1 & s2:
        raise ValueError("qubit subsets overlap")
    return sum(w[i, j] for i in subset_qubits(s1) for j in subset_qubits(s2))
