"""Exact minimum-communication K-way partitioning of the qubit set.

Qubit subsets are plain int bitmasks: bit i set means qubit i (0-based) is in
the subset, and the decimal value of the mask is the memo-table index. The
main entry points are:

  * dp_partition - memoized subset DP, optimal; max_part_size caps the parts.
  * dp_table - the full memo table, for reporting and CSV export.
  * oracle_partition - independent brute force over all set partitions,
    used to cross-check the DP on small instances.

Costs count two-qubit gates whose endpoints land in different parts; each
such gate requires one teleportation.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import lru_cache
from json.encoder import encode_basestring_ascii

import numpy as np

from . import dpcore
from .dpcore import INF
from .bigraph import WeightMatrix
from .errors import InfeasiblePartitionError, QcpartError, SizeCapError

QubitSubset = int

DEFAULT_DP_CAP = 24
DEFAULT_ORACLE_CAP = 12
ORACLE_CAP_ENV = "QCPART_ORACLE_CAP"
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
    ``dpcore.solve``, ``(cost, peeled submask)`` arrays indexed by mask.

    ``cost_at`` returns None for unreachable states (fewer qubits than parts,
    or no split satisfying the part-size cap); ``choice_at`` returns None at
    k=1 and for unreachable states. Each level is a read-only memoryview, so
    a read is one range test and one index that yields a plain int.
    """

    def __init__(self, n: int, k_max: int, levels: list):
        self.n = n
        self.k_max = k_max
        # per-level views, indexed by k; index 0 is None
        self._cost = [None] + [memoryview(c).toreadonly() for c, _ in levels]
        self._choice = [None] + [memoryview(s).toreadonly() for _, s in levels]
        self._end = 1 << n
        self._header = ["index", "qubits"] + [f"k={k}" for k in range(1, k_max + 1)]

    def _check(self, mask: int, k: int) -> None:
        if not 1 <= k <= self.k_max:
            raise ValueError(f"k must be in 1..{self.k_max}")
        if not 1 <= mask < (1 << self.n):
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
                for mask, costs in zip(range(1, 1 << self.n), zip(*columns))]
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

    def json_string(self) -> str:
        """``json.dumps(self.payload(), indent=2)``, byte for byte, without
        the standard library's pure-Python indent encoder."""
        return self.json_string_at("")

    def json_string_at(self, pad: str) -> str:
        """``json_string()`` with ``pad`` after every newline, so it can sit at
        that depth of an indent=2 document."""
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


def assignment_cost(assignment: PartitionAssignment, w: WeightMatrix) -> int:
    """Total inter-part weight of an assignment: the weight of every qubit
    pair whose two qubits lie in different parts, each pair counted once."""
    return dpcore.crossing_weight(w.m, np.asarray(assignment.part_labels()))


def check_width(n: int, cap: int | None = None) -> None:
    """Raise SizeCapError when n qubits exceed the exact-partitioner cap
    (default 24). Cheap enough to run before anything is allocated."""
    dp_cap = DEFAULT_DP_CAP if cap is None else cap
    if n > dp_cap:
        raise SizeCapError(
            f"{n} qubits exceeds the exact-partitioner cap ({dp_cap}); the state space "
            f"grows as 3^n. Raise the cap to proceed anyway (CLI: partition or bench "
            f"--force), or use the brute-force oracle for tiny instances."
        )


def _reconstruct(n: int, path: list) -> tuple[int, list[QubitSubset]]:
    """Cost and parts of the reconstruction path of a ``dpcore.solve``: the
    peel of every level, then the rest."""
    mask = (1 << n) - 1
    if not path:  # one part
        return 0, [mask]
    if path[0][0] >= INF:
        raise QcpartError("no feasible partition found for a feasible problem")
    parts = []
    for _, s in path:
        if s == 0:  # a reachable state always peels a non-empty part
            raise QcpartError("memo table has no back-pointer for a reachable state")
        parts.append(s)
        mask ^= s
    parts.append(mask)
    return path[0][0], parts


def _solve(w: WeightMatrix, k: int, part_cap: int | None, cap: int | None,
           full_table: bool) -> tuple[int, list, list | None]:
    """Check the problem, then run ``dpcore.solve``. Returns the effective
    part cap, the solve's path and its levels (None unless ``full_table``)."""
    n = w.n
    if not 1 <= k <= n:
        raise InfeasiblePartitionError(
            f"cannot split {n} qubit(s) into {k} non-empty part(s)"
        )
    check_width(n, cap)
    if part_cap is not None:
        if part_cap < 1:
            raise InfeasiblePartitionError("max_part_size must be >= 1")
        if k * part_cap < n:
            raise InfeasiblePartitionError(
                f"{k} part(s) of at most {part_cap} qubit(s) cannot cover {n} qubits"
            )
    effective_cap = n if part_cap is None else min(part_cap, n)
    return effective_cap, *dpcore.solve(w.m, k, effective_cap, full_table=full_table)


def dp_partition(w: WeightMatrix, k: int, *, max_part_size: int | None = None,
                 keep_table: bool = False, cap: int | None = None) -> PartitionResult:
    """Split the qubit set into exactly k non-empty parts minimizing the
    number of two-qubit gates that cross parts.

    The optimum is exact; ties between equal-cost splits resolve toward the
    numerically lowest peeled submask, so the returned assignment is
    deterministic. ``max_part_size`` restricts every part to at most that
    many qubits. ``keep_table`` retains the full memo table on the result.
    ``cap`` overrides the qubit-count guardrail (default 24).

    Without ``keep_table`` the solve returns only the reconstruction path,
    and for K >= 3 ``dpcore.plan`` first searches the admissible peels:
    those whose cut is at most the cost U of a cheap feasible split and
    whose size is at most min(cap, n-K+1), since no part of an optimal
    split can be any other. The search extends ascending tuples of
    disjoint peels, drops every prefix that already cuts more than U, and
    returns the cheapest tuple, the lexicographically first on a tie,
    which is the path the dense DP's tie rule follows. When the cells it
    would examine exceed a budget counted from the level schedules' work,
    the solve runs the bounded-peel levels or the dense scan instead,
    whichever counts less work. Either way the cost and the assignment are
    the dense DP's. With ``keep_table`` the full table is always solved
    densely, and its levels come back with the path.
    """
    effective_cap, path, levels = _solve(w, k, max_part_size, cap, keep_table)
    cost, parts = _reconstruct(w.n, path)
    assignment = PartitionAssignment.from_parts(w.n, parts)
    if max(assignment.sizes()) > effective_cap:
        raise QcpartError(f"DP assignment has a part above the cap of {effective_cap} qubits")
    recount = assignment_cost(assignment, w)
    if cost != recount:
        raise QcpartError(f"DP cost {cost} differs from its assignment's recounted cost {recount}")
    return PartitionResult(
        assignment=assignment,
        cost=cost,
        table=DpTable(w.n, k, levels) if keep_table else None,
        max_part_size=max_part_size,
    )


def dp_table(w: WeightMatrix, k: int, *, cap: int | None = None) -> DpTable:
    """Full memo table over every non-empty mask and 1 <= level <= k."""
    return DpTable(w.n, k, _solve(w, k, None, cap, True)[2])


@lru_cache(maxsize=None)
def _rgs_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All set partitions of n elements as restricted growth strings, in
    lexicographic order, plus the block count of each row. Cached; the
    arrays are read-only."""
    labels = np.zeros((1, 1), dtype=np.uint8)
    nblocks = np.ones(1, dtype=np.uint8)
    for _ in range(n - 1):
        reps = nblocks.astype(np.int64) + 1
        parent = np.repeat(np.arange(nblocks.size), reps)
        ends = np.cumsum(reps)
        newcol = (np.arange(ends[-1]) - (ends - reps)[parent]).astype(np.uint8)
        labels = np.concatenate([labels[parent], newcol[:, None]], axis=1)
        nblocks = nblocks[parent] + (newcol == nblocks[parent])
    labels.setflags(write=False)
    nblocks.setflags(write=False)
    return labels, nblocks


def oracle_cap() -> int:
    """Brute-force size cap; QCPART_ORACLE_CAP overrides the default of 12."""
    raw = os.environ.get(ORACLE_CAP_ENV)
    if raw is None:
        return DEFAULT_ORACLE_CAP
    try:
        return int(raw)
    except ValueError:
        raise QcpartError(f"{ORACLE_CAP_ENV} must be an integer, got {raw!r}") from None


def check_oracle_width(n: int) -> None:
    """Raise SizeCapError when n qubits exceed the brute-force cap,
    ``oracle_cap()``. Cheap enough to run before anything is allocated."""
    limit = oracle_cap()
    if n > limit:
        raise SizeCapError(
            f"{n} qubits exceeds the brute-force cap ({limit}); set {ORACLE_CAP_ENV} "
            f"or use dp_partition instead."
        )


def oracle_partition(w: WeightMatrix, k: int) -> PartitionResult:
    """Brute-force optimum: enumerate every partition of the qubits into
    exactly k non-empty blocks and score each directly from the weight
    matrix. Exponential (Bell numbers); guarded by ``oracle_cap()``.

    Independent of the DP on purpose: different enumeration, different cost
    evaluation. Among equal-cost partitions the lexicographically first
    growth string wins.
    """
    n = w.n
    check_oracle_width(n)
    if not 1 <= k <= n:
        raise InfeasiblePartitionError(
            f"cannot split {n} qubit(s) into {k} non-empty part(s)"
        )
    labels, nblocks = _rgs_table(n)
    costs = np.zeros(labels.shape[0], dtype=np.int64)
    for i, j, wij in w.pairs():
        costs += wij * (labels[:, i] != labels[:, j])
    sel = np.flatnonzero(nblocks == k)
    best = sel[np.argmin(costs[sel])]
    assignment = PartitionAssignment.from_labels(labels[best].tolist())
    return PartitionResult(assignment=assignment, cost=int(costs[best]))
