"""Exact minimum-communication K-way partitioning of the qubit set.

Qubit subsets are plain int bitmasks: bit i set means qubit i (0-based) is in
the subset, and the decimal value of the mask is the memo-table index. The
main entry points are:

  * dp_partition - memoized subset DP, optimal; max_part_size caps the parts.
  * dp_table - the full memo table, for reporting and CSV export.
  * oracle_partition - independent brute force over all partitions into k
    blocks, used to cross-check the DP on small instances.

Costs count two-qubit gates whose endpoints land in different parts; each
such gate requires one teleportation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii

import numpy as np

from . import dpcore
from .dpcore import INF
from .bigraph import WeightMatrix
from .errors import InfeasiblePartitionError, QcpartError, SizeCapError

QubitSubset = int

DEFAULT_DP_CAP = 24
ORACLE_ROW_BUDGET = 1 << 21  # partitions the brute force may score: S(12, k) <= 1 379 400
_RENDER_ROWS = 1 << 12  # rows per gather in DpTable._rows


def subset_of(qubits) -> QubitSubset:
    """Bitmask for an iterable of 0-based qubit indices."""
    mask = 0
    for q in qubits:
        mask |= 1 << q
    return mask


def subset_qubits(mask: QubitSubset) -> list[int]:
    """0-based qubit indices in a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def format_subset(mask: QubitSubset) -> str:
    """Render a mask as a 1-based qubit set, highest first: ``{4,3,1}``."""
    return "{" + ",".join(str(q + 1) for q in reversed(subset_qubits(mask))) + "}"


@dataclass(frozen=True)
class PartitionAssignment:
    """Total map qubit -> part. ``parts`` are disjoint non-empty masks covering
    all n qubits, in canonical order (ascending lowest member)."""

    n: int
    parts: tuple[QubitSubset, ...]

    def __post_init__(self):
        union = 0
        total_bits = 0
        for p in self.parts:
            if p == 0:
                raise InfeasiblePartitionError("empty part in assignment")
            union |= p
            total_bits += p.bit_count()
        if union != (1 << self.n) - 1 or total_bits != self.n:
            raise InfeasiblePartitionError("parts must be disjoint and cover every qubit exactly once")
        if list(self.parts) != sorted(self.parts, key=lambda p: p & -p):
            raise InfeasiblePartitionError("parts must be ordered by lowest member")

    @classmethod
    def from_parts(cls, n: int, masks) -> "PartitionAssignment":
        return cls(n, tuple(sorted(masks, key=lambda p: p & -p)))

    @classmethod
    def from_labels(cls, labels) -> "PartitionAssignment":
        """Build from a per-qubit part-label sequence."""
        groups: dict[int, int] = {}
        for q, b in enumerate(labels):
            groups[int(b)] = groups.get(int(b), 0) | (1 << q)
        return cls.from_parts(len(labels), groups.values())

    @property
    def k(self) -> int:
        return len(self.parts)

    def part_of(self, qubit: int) -> int:
        for idx, p in enumerate(self.parts):
            if (p >> qubit) & 1:
                return idx
        raise IndexError(f"qubit {qubit} not covered")

    def part_labels(self) -> list[int]:
        """Part index per qubit, length n."""
        labels = [0] * self.n
        for idx, p in enumerate(self.parts):
            for q in subset_qubits(p):
                labels[q] = idx
        return labels

    def sizes(self) -> tuple[int, ...]:
        return tuple(p.bit_count() for p in self.parts)

    def as_lists(self) -> list[list[int]]:
        """1-based qubit lists per part, canonical order."""
        return [[q + 1 for q in subset_qubits(p)] for p in self.parts]


def _subset_labels(n: int) -> list[str]:
    """``format_subset(mask)`` for every mask below 2^n, built by doubling:
    the label of mask | 1 << b lists qubit b + 1 before the label of mask."""
    inner = [""]
    for b in range(n):
        top = str(b + 1)
        inner += [top] + [top + "," + s for s in inner[1:]]
    return ["{" + s + "}" for s in inner]


class DpTable:
    """Full memo table over (mask, k): the optimal cost and the peeled
    submask that achieves it, read from the levels 1..k_max of a full-table
    ``dpcore.solve``, ``(cost, peeled submask)`` arrays indexed by mask, so
    ``k_max`` is their count and ``n`` the log2 of their length.

    ``cost_at`` returns None for unreachable states (fewer qubits than parts,
    or no split satisfying the part-size cap); ``choice_at`` returns None at
    k=1 and for unreachable states. Each level is a read-only memoryview, so
    a read is one range test and one index that yields a plain int.
    """

    def __init__(self, levels: list):
        # per-level views, indexed by k; index 0 is None
        self._cost = [None] + [memoryview(c).toreadonly() for c, _ in levels]
        self._choice = [None] + [memoryview(s).toreadonly() for _, s in levels]
        self._end = len(self._cost[1])
        self.n = self._end.bit_length() - 1
        self.k_max = len(levels)
        self._header = ["index", "qubits"] + [f"k={k}" for k in range(1, self.k_max + 1)]

    def _check(self, mask: int, k: int) -> None:
        if not 1 <= k <= self.k_max:
            raise ValueError(f"k must be in 1..{self.k_max}")
        if not 1 <= mask < self._end:
            raise ValueError(f"mask must be a non-empty subset of {self.n} qubits")

    def cost_at(self, mask: int, k: int) -> int | None:
        if not (0 < k <= self.k_max and 0 < mask < self._end):
            self._check(mask, k)
        cost = self._cost[k][mask]
        return cost if cost < INF else None

    def choice_at(self, mask: int, k: int) -> QubitSubset | None:
        if not (0 < k <= self.k_max and 0 < mask < self._end):
            self._check(mask, k)
        # a reachable state always peels a non-empty part; 0 marks the others
        return self._choice[k][mask] or None

    def payload(self) -> dict:
        """``{header, rows}``: one row per subset index (the decimal mask
        value) with its qubit set and one cost per k, None when unreachable."""
        columns = [[c if c < INF else None for c in cost.tolist()[1:]]
                   for cost in self._cost[1:]]
        labels = _subset_labels(self.n)
        rows = [[mask, labels[mask], *costs]
                for mask, costs in zip(range(1, self._end), zip(*columns))]
        return {"header": list(self._header), "rows": rows}

    def _rows(self, label, null: str, head: str, sep: str, tail: str) -> list[str]:
        """Every row of ``payload()`` as head + its cells joined by sep +
        tail, in chunks of _RENDER_ROWS rows. The mask and ``label`` of its
        qubit set, joined by sep, are made once per mask, and each distinct
        cost once (``null`` when unreachable); a chunk is one gather from
        those strings and one join."""
        size = self._end
        values, code = np.unique(np.array(self._cost[1:]), return_inverse=True)
        masks = (f"{mask}{sep}{label(s)}" for mask, s in enumerate(_subset_labels(self.n)))
        pool = np.array([*masks, *(null if v == INF else str(v) for v in values.tolist())],
                        dtype=object)
        cells = np.column_stack([np.arange(size), size + code.reshape(self.k_max, size).T])
        del code  # one int64 per (mask, k): freed before the rows are rendered
        pieces = np.empty((_RENDER_ROWS, 2 * cells.shape[1] + 1), dtype=object)
        pieces[:, 0::2] = [head] + [sep] * (cells.shape[1] - 1) + [tail]
        out = []
        for lo in range(1, size, _RENDER_ROWS):
            rows = pieces[:size - lo]  # the first _RENDER_ROWS at most
            rows[:, 1::2] = pool[cells[lo:lo + _RENDER_ROWS]]
            out.append("".join(rows.ravel().tolist()))
        return out

    def json_string(self, pad: str = "") -> str:
        """``json.dumps(self.payload(), indent=2)``, byte for byte, without
        the standard library's pure-Python indent encoder. ``pad`` follows
        every newline, so the table can sit at that depth of an indent=2
        document."""
        nl = "\n" + pad
        header = json.dumps(self._header, indent=2).replace("\n", nl + "  ")
        rows = self._rows(encode_basestring_ascii, "null", f"{pad}    [{nl}      ",
                          f",{nl}      ", f"{nl}    ],\n")
        rows[-1] = rows[-1][:-2]  # no comma after the last row
        return "".join(["{", nl, '  "header": ', header, ",", nl, '  "rows": [\n', *rows,
                        nl, "  ]", nl, "}"])

    def csv_string(self) -> str:
        """CSV text of ``payload()``, as ``csv.writer`` writes it: a qubit
        set is quoted when it holds a comma, and unreachable cells render as
        N.A."""
        rows = self._rows(lambda s: f'"{s}"' if "," in s else s, "N.A", "", ",", "\n")
        return "".join([",".join(self._header), "\n", *rows])


@dataclass(frozen=True)
class PartitionResult:
    """Optimal assignment plus its cost; ``table`` is retained on request.
    ``max_part_size`` is set when the search was size-constrained."""

    assignment: PartitionAssignment
    cost: int
    table: DpTable | None = field(default=None, compare=False)
    max_part_size: int | None = None

    @property
    def constrained(self) -> bool:
        return self.max_part_size is not None

    @property
    def ratio_r(self) -> Fraction:
        """R = teleportations / (2 * qubits), exact."""
        return Fraction(self.cost, 2 * self.assignment.n)


def assignment_cost(assignment: PartitionAssignment, w: WeightMatrix) -> int:
    """Total inter-part weight of an assignment: the weight of every qubit
    pair whose two qubits lie in different parts, each pair counted once."""
    return dpcore.crossing_weight(w.m, np.asarray(assignment.part_labels()))


def check_width(n: int, force: bool = False) -> None:
    """Raise SizeCapError when n qubits exceed the exact partitioner's guard
    of DEFAULT_DP_CAP qubits, unless ``force``. Cheap enough to run before
    anything is allocated."""
    if n > DEFAULT_DP_CAP and not force:
        raise SizeCapError(
            f"{n} qubits exceeds the exact-partitioner cap ({DEFAULT_DP_CAP}); the state "
            f"space grows as 3^n. Pass force=True to proceed anyway (CLI: partition or "
            f"bench --force), or use the brute-force oracle for tiny instances."
        )


def _reconstruct(n: int, cost: int, peels: list) -> list[QubitSubset]:
    """Parts of the split a ``dpcore.solve`` found: its peels, then the rest."""
    if cost >= INF:
        raise QcpartError("no feasible partition found for a feasible problem")
    if 0 in peels:  # a reachable state always peels a non-empty part
        raise QcpartError("memo table has no back-pointer for a reachable state")
    return [*peels, ((1 << n) - 1) ^ sum(peels)]


def dp_partition(w: WeightMatrix, k: int, *, max_part_size: int | None = None,
                 keep_table: bool = False, force: bool = False) -> PartitionResult:
    """Split the qubit set into exactly k non-empty parts minimizing the
    number of two-qubit gates that cross parts.

    The optimum is exact; ties between equal-cost splits resolve toward the
    numerically lowest peeled submask, so the returned assignment is
    deterministic. ``max_part_size`` restricts every part to at most that
    many qubits. ``keep_table`` retains the full memo table on the result.
    ``force`` lifts the qubit-count guard of ``check_width``.

    Without ``keep_table`` the solve returns only the split it found, by
    the route ``dpcore.plan`` picks from counted work: at K >= 3 a pruned
    search over the peels that can be a part of an optimal split, else the
    bounded-peel levels or the dense scan (see ``dpcore``). Every route
    gives the dense DP's cost and assignment. With ``keep_table`` the full
    table is always solved densely, and its levels come back with the split.
    Either way the split is checked before it is returned: a part within
    the cap, and a cost equal to the assignment's recount.
    """
    n = w.n
    if not 1 <= k <= n:
        raise InfeasiblePartitionError(
            f"cannot split {n} qubit(s) into {k} non-empty part(s)"
        )
    check_width(n, force)
    if max_part_size is not None:
        if max_part_size < 1:
            raise InfeasiblePartitionError("max_part_size must be >= 1")
        if k * max_part_size < n:
            raise InfeasiblePartitionError(
                f"{k} part(s) of at most {max_part_size} qubit(s) cannot cover {n} qubits"
            )
    cap = n if max_part_size is None else min(max_part_size, n)
    cost, peels, levels = dpcore.solve(w.m, k, cap, full_table=keep_table)
    assignment = PartitionAssignment.from_parts(n, _reconstruct(n, cost, peels))
    if max(assignment.sizes()) > cap:
        raise QcpartError(f"DP assignment has a part above the cap of {cap} qubits")
    recount = assignment_cost(assignment, w)
    if cost != recount:
        raise QcpartError(f"DP cost {cost} differs from its assignment's recounted cost {recount}")
    return PartitionResult(
        assignment=assignment,
        cost=cost,
        table=DpTable(levels) if keep_table else None,
        max_part_size=max_part_size,
    )


def dp_table(w: WeightMatrix, k: int, *, force: bool = False) -> DpTable:
    """Full memo table over every non-empty mask and 1 <= level <= k: the
    table of ``dp_partition(w, k, keep_table=True, force=force)``, so its
    split is checked as a partition's is."""
    return dp_partition(w, k, keep_table=True, force=force).table


def _partition_count(n: int, k: int) -> int:
    """S(n, k), the number of partitions of n elements into k non-empty
    blocks, by the recurrence S(m, j) = j S(m-1, j) + S(m-1, j-1)."""
    if not 0 <= k <= n:
        return 0
    row = [1] + [0] * k  # S(0, j)
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def check_oracle_width(n: int, k: int) -> None:
    """Raise SizeCapError when n is above the DP's DEFAULT_DP_CAP qubits, or
    when S(n, k), the count of partitions into k parts that the oracle
    scores, is above ORACLE_ROW_BUDGET. Exact, and run before anything is
    allocated: every k is admitted up to 12 qubits, k=2 to 22 and k=3 to 14."""
    if n > DEFAULT_DP_CAP:
        raise SizeCapError(f"{n} qubits exceeds the brute-force cap ({DEFAULT_DP_CAP}); "
                           f"use dp_partition instead.")
    count = _partition_count(n, k)
    if count > ORACLE_ROW_BUDGET:
        raise SizeCapError(f"{count} partitions of {n} qubits into {k} parts exceed the "
                           f"brute-force budget of {ORACLE_ROW_BUDGET}; use dp_partition instead.")


@lru_cache(maxsize=16)
def _rgs_rows(n: int, k: int) -> np.ndarray:
    """The restricted growth strings of n elements with exactly k blocks, in
    lexicographic order, as a read-only (n, S(n, k)) uint8 array: column j
    is string j. Element i joins an open block or, while fewer than k are
    open, opens the next; a prefix is dropped once the elements left cannot
    open the blocks still missing. Cached for the 16 latest (n, k)."""
    rows = np.zeros((1, 1), dtype=np.uint8)  # element 0 opens block 0
    nopen = np.ones(1, dtype=np.uint8)
    for i in range(1, n):
        join = np.where(nopen >= k - (n - 1 - i), nopen, 0)  # the rest can open the others
        reps = join + (nopen < k)
        parent = np.repeat(np.arange(nopen.size, dtype=np.int32), reps)
        grown = np.empty((i + 1, parent.size), dtype=np.uint8)
        np.take(rows, parent, axis=1, out=grown[:i], mode="clip")  # "clip": out is not buffered
        rows = grown
        # a prefix's children take blocks nopen - join .. nopen in turn
        first = np.cumsum(reps, dtype=np.int32) - reps - nopen + join
        rows[i] = np.arange(parent.size, dtype=np.int32) - first[parent]
        nopen = nopen[parent]
        nopen += rows[i] == nopen
    rows.setflags(write=False)
    return rows


def oracle_partition(w: WeightMatrix, k: int) -> PartitionResult:
    """Brute-force optimum: enumerate every partition of the qubits into
    exactly k non-empty blocks and score each directly from the weight
    matrix. Exponential (S(n, k) partitions); guarded by ``check_oracle_width``.

    Independent of the DP on purpose: different enumeration, different cost
    evaluation. Among equal-cost partitions the lexicographically first
    growth string wins.
    """
    n = w.n
    check_oracle_width(n, k)
    if not 1 <= k <= n:
        raise InfeasiblePartitionError(
            f"cannot split {n} qubit(s) into {k} non-empty part(s)"
        )
    rows = _rgs_rows(n, k)
    costs = np.zeros(rows.shape[1], dtype=np.int64)
    for i, j, wij in w.pairs():
        costs += wij * (rows[i] != rows[j])
    best = int(np.argmin(costs))
    assignment = PartitionAssignment.from_labels(rows[:, best].tolist())
    return PartitionResult(assignment=assignment, cost=int(costs[best]))
