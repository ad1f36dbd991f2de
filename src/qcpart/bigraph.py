"""Bipartite qubit/gate graph and the pairwise qubit-interaction weight matrix.

The graph has one x-vertex per qubit and one y-vertex per gate; a gate is
joined to every qubit it acts on, so single-qubit gates have degree 1 and
two-qubit gates degree 2. The weight matrix compresses the graph for cost
computation: entry (i, j) counts the two-qubit gates on the unordered pair
{qi, qj}. Repeated identical gates stay distinct y-vertices, which makes the
qubit-pair view an integer-weighted multigraph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator

import numpy as np

from .circuit import Circuit


@dataclass(frozen=True)
class BipartiteGraph:
    """Incidence structure: edges are (gate ordinal, qubit) pairs in gate order.

    ``pairs`` (derived, read-only) holds the (first, second) qubit of every
    degree-2 gate vertex, in gate order, as an int64 array of shape (P, 2).
    """

    num_qubits: int
    num_gates: int
    edges: tuple[tuple[int, int], ...]
    pairs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ends = np.fromiter(chain.from_iterable(self.edges), np.int64,
                           count=2 * len(self.edges)).reshape(-1, 2)
        g, q = ends[:, 0], ends[:, 1]
        bad_gate = (g < 0) | (g >= self.num_gates)
        bad = bad_gate | (q < 0) | (q >= self.num_qubits)
        if bad.any():
            i = int(np.argmax(bad))  # the first bad edge; its gate is checked first
            if bad_gate[i]:
                raise ValueError(f"edge references unknown gate vertex {g[i]}")
            raise ValueError(f"edge references unknown qubit vertex {q[i]}")
        degree = np.bincount(g, minlength=self.num_gates)
        bad = np.flatnonzero((degree < 1) | (degree > 2)).tolist()
        if bad:
            raise ValueError(f"gate vertices with degree outside 1..2: {bad}")
        order = np.argsort(g, kind="stable")  # a gate's edges become adjacent
        g, q = g[order], q[order]
        pairs = q[degree[g] == 2].reshape(-1, 2)
        loops = np.flatnonzero(pairs[:, 0] == pairs[:, 1])
        if loops.size:
            gate = int(np.flatnonzero(degree == 2)[loops[0]])
            raise ValueError(f"gate vertex {gate} joins qubit {pairs[loops[0], 0]} twice")
        pairs.setflags(write=False)
        object.__setattr__(self, "pairs", pairs)

    @property
    def num_vertices(self) -> int:
        return self.num_qubits + self.num_gates


class WeightMatrix:
    """Symmetric n x n matrix of two-qubit gate counts per qubit pair.

    The diagonal is zero and the sum over unordered pairs equals the number
    of two-qubit gates in the source circuit. The backing array is read-only.
    """

    def __init__(self, m: np.ndarray):
        src = np.asarray(m)
        m = np.array(src, dtype=np.int64, copy=True)
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
    """Convert a circuit to its bipartite graph, one edge per (gate, qubit)
    incidence, added gate by gate from left to right (control before target)."""
    ends = circuit.ends.ravel()
    touched = ends >= 0  # drops the -1 control of single-qubit gates
    gate = np.repeat(np.arange(circuit.size), 2)[touched]
    return BipartiteGraph(circuit.width, circuit.size,
                          tuple(zip(gate.tolist(), ends[touched].tolist())))


def weight_matrix(graph: BipartiteGraph) -> WeightMatrix:
    """Pairwise interaction counts: each degree-2 gate vertex adds 1 to its
    qubit pair; degree-1 vertices contribute nothing."""
    n = graph.num_qubits
    a, b = graph.pairs[:, 0], graph.pairs[:, 1]
    m = np.bincount(a * n + b, minlength=n * n).reshape(n, n)
    return WeightMatrix(m + m.T)


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
