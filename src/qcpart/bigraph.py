"""Bipartite qubit/gate graph and the pairwise qubit-interaction weight matrix.

The graph has one x-vertex per qubit and one y-vertex per gate, each gate
joined to the qubits it acts on. A circuit's ``ends`` columns already are
that graph, so ``BipartiteGraph`` is a read-only view of ``Circuit.ends`` and
``Circuit`` is the one place that checks the incidence. The weight matrix
compresses the graph for cost computation: entry (i, j) counts the two-qubit
gates on the unordered pair {qi, qj}; repeated identical gates stay distinct
y-vertices, which makes the qubit-pair view an integer-weighted multigraph.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .circuit import Circuit


class BipartiteGraph:
    """The incidence of a circuit: ``ends`` is the circuit's own read-only
    (G, 2) array of (control or -1, target) rows, shared, not copied.

    ``edges`` are the (gate ordinal, qubit) pairs in gate order, control
    before target; ``pairs`` are the (control, target) rows of the two-qubit
    gates, int64 of shape (P, 2). Both are built when read. Two graphs are
    equal when their qubit counts and ``ends`` are.
    """

    __slots__ = ("num_qubits", "ends")

    def __init__(self, circuit: Circuit):
        object.__setattr__(self, "num_qubits", circuit.width)
        object.__setattr__(self, "ends", circuit.ends)

    def __setattr__(self, name, value):
        raise AttributeError(f"BipartiteGraph is read-only; cannot set {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.num_qubits == other.num_qubits and np.array_equal(self.ends, other.ends)

    def __hash__(self):
        return hash((self.num_qubits, self.ends.tobytes()))

    @property
    def num_gates(self) -> int:
        return len(self.ends)

    @property
    def num_vertices(self) -> int:
        return self.num_qubits + self.num_gates

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        ends = self.ends.ravel()
        touched = ends >= 0  # drops the -1 control of single-qubit gates
        gate = np.repeat(np.arange(self.num_gates), 2)[touched]
        return tuple(zip(gate.tolist(), ends[touched].tolist()))

    @property
    def pairs(self) -> np.ndarray:
        return self.ends[self.ends[:, 0] >= 0]


class WeightMatrix:
    """Symmetric n x n matrix of two-qubit gate counts per qubit pair.

    The diagonal is zero and the sum over unordered pairs equals the number
    of two-qubit gates in the source circuit. The backing array is read-only.
    """

    def __init__(self, m: np.ndarray):
        src = np.asarray(m)
        with np.errstate(invalid="ignore"):  # NaN and inf fail the check below
            m = np.array(src, dtype=np.int64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("weight matrix must be square")
        if m.shape[0] < 1:
            raise ValueError("weight matrix needs at least one qubit")
        if (m != src).any():  # the int64 copy truncated a fraction
            raise ValueError("weights must be integers")
        if (m < 0).any():
            raise ValueError("weights must be non-negative")
        if (np.diagonal(m) != 0).any():
            raise ValueError("diagonal must be zero")
        if (m != m.T).any():
            raise ValueError("weight matrix must be symmetric")
        m.setflags(write=False)
        self.m = m

    @property
    def n(self) -> int:
        return self.m.shape[0]

    @property
    def total_weight(self) -> int:
        """Sum over unordered pairs = two-qubit gate count."""
        return int(self.m.sum()) // 2

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return int(self.m[ij])

    def pairs(self) -> Iterator[tuple[int, int, int]]:
        """Yield (i, j, weight) for every pair i < j with non-zero weight."""
        ii, jj = np.nonzero(np.triu(self.m, 1))
        for i, j in zip(ii.tolist(), jj.tolist()):
            yield i, j, int(self.m[i, j])


def qc_to_bigraph(circuit: Circuit) -> BipartiteGraph:
    """The circuit's bipartite graph, sharing its ``ends`` columns."""
    return BipartiteGraph(circuit)


def weight_matrix(graph: BipartiteGraph) -> WeightMatrix:
    """Pairwise interaction counts: each degree-2 gate vertex adds 1 to its
    qubit pair; degree-1 vertices contribute nothing."""
    n = graph.num_qubits
    a, b = graph.pairs.T
    m = np.bincount(a * n + b, minlength=n * n).reshape(n, n)
    return WeightMatrix(m + m.T)


def bigraph_to_dot(graph: BipartiteGraph, name: str = "bigraph") -> str:
    """DOT rendering with qubit and gate vertices in two ranks; ``\\`` and
    ``"`` in ``name`` are escaped."""
    quoted = name.replace("\\", "\\\\").replace('"', '\\"')
    lines = [f'graph "{quoted}" {{', "  rankdir=BT;"]
    qnames = [f"q{i + 1}" for i in range(graph.num_qubits)]
    gnames = [f"g{i + 1}" for i in range(graph.num_gates)]
    lines.append("  { rank=same; " + "; ".join(qnames) + "; }")
    if gnames:
        lines.append("  { rank=same; " + "; ".join(gnames) + "; }")
    for g, q in graph.edges:
        lines.append(f"  {gnames[g]} -- {qnames[q]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
