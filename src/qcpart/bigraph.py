"""Bipartite qubit/gate graph and the pairwise qubit-interaction weight matrix.

The graph has one x-vertex per qubit and one y-vertex per gate; a gate is
joined to every qubit it acts on, so single-qubit gates have degree 1 and
two-qubit gates degree 2. The weight matrix compresses the graph for cost
computation: entry (i, j) counts the two-qubit gates on the unordered pair
{qi, qj}. Repeated identical gates stay distinct y-vertices, which makes the
qubit-pair view an integer-weighted multigraph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .circuit import Circuit


@dataclass(frozen=True)
class BipartiteGraph:
    """Incidence structure: edges are (gate ordinal, qubit) pairs in gate order."""

    num_qubits: int
    num_gates: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        degree = [0] * self.num_gates
        for g, q in self.edges:
            if not 0 <= g < self.num_gates:
                raise ValueError(f"edge references unknown gate vertex {g}")
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"edge references unknown qubit vertex {q}")
            degree[g] += 1
        bad = [g for g, d in enumerate(degree) if d not in (1, 2)]
        if bad:
            raise ValueError(f"gate vertices with degree outside 1..2: {bad}")

    @property
    def num_vertices(self) -> int:
        return self.num_qubits + self.num_gates

    def gate_endpoints(self) -> list[tuple[int, ...]]:
        """Qubits touched by each gate vertex, indexed by gate ordinal."""
        ends: list[list[int]] = [[] for _ in range(self.num_gates)]
        for g, q in self.edges:
            ends[g].append(q)
        return [tuple(e) for e in ends]


class WeightMatrix:
    """Symmetric n x n matrix of two-qubit gate counts per qubit pair.

    The diagonal is zero and the sum over unordered pairs equals the number
    of two-qubit gates in the source circuit. The backing array is read-only.
    """

    def __init__(self, m: np.ndarray):
        m = np.array(m, dtype=np.int64, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("weight matrix must be square")
        if m.shape[0] < 1:
            raise ValueError("weight matrix needs at least one qubit")
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
    """Convert a circuit to its bipartite graph, one edge per (gate, qubit)
    incidence, added gate by gate from left to right (control before target)."""
    edges = []
    for g in circuit.gates:
        for q in g.qubits:
            edges.append((g.ordinal, q))
    return BipartiteGraph(circuit.width, circuit.size, tuple(edges))


def weight_matrix(graph: BipartiteGraph) -> WeightMatrix:
    """Pairwise interaction counts: each degree-2 gate vertex adds 1 to its
    qubit pair; degree-1 vertices contribute nothing."""
    m = np.zeros((graph.num_qubits, graph.num_qubits), dtype=np.int64)
    for ends in graph.gate_endpoints():
        if len(ends) == 2:
            a, b = ends
            m[a, b] += 1
            m[b, a] += 1
    return WeightMatrix(m)


def bigraph_to_dot(graph: BipartiteGraph, name: str = "bigraph") -> str:
    """DOT rendering with qubit and gate vertices in two ranks."""
    lines = [f'graph "{name}" {{', "  rankdir=BT;"]
    qnames = [f"q{i + 1}" for i in range(graph.num_qubits)]
    gnames = [f"g{i + 1}" for i in range(graph.num_gates)]
    lines.append("  { rank=same; " + "; ".join(qnames) + "; }" if qnames else "")
    if gnames:
        lines.append("  { rank=same; " + "; ".join(gnames) + "; }")
    for g, q in graph.edges:
        lines.append(f"  {gnames[g]} -- {qnames[q]};")
    lines.append("}")
    return "\n".join(line for line in lines if line) + "\n"
