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

import csv
import io
import os
from dataclasses import dataclass, field

import numpy as np

from . import dpcore
from .bigraph import WeightMatrix
from .errors import InfeasiblePartitionError, QcpartError, SizeCapError

QubitSubset = int

DEFAULT_DP_CAP = 24
DEFAULT_ORACLE_CAP = 12
ORACLE_CAP_ENV = "QCPART_ORACLE_CAP"


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


class DpTable:
    """Memo table over (mask, k): the optimal cost and the peeled submask that
    achieves it, read from the per-level dicts of ``dpcore.solve``.

    ``cost_at`` returns None for unreachable states (fewer qubits than parts,
    or no split satisfying the part-size cap); ``choice_at`` returns None at
    k=1 and for unreachable states.
    """

    def __init__(self, n: int, k_max: int, cap: int, cost_levels: list, choice_levels: list):
        self.n = n
        self.k_max = k_max
        self.cap = cap
        self._cost = cost_levels
        self._choice = choice_levels

    def _check(self, mask: int, k: int) -> None:
        if not 1 <= k <= self.k_max:
            raise ValueError(f"k must be in 1..{self.k_max}")
        if not 1 <= mask < (1 << self.n):
            raise ValueError(f"mask must be a non-empty subset of {self.n} qubits")

    def cost_at(self, mask: int, k: int) -> int | None:
        self._check(mask, k)
        if k == 1:
            return 0 if mask.bit_count() <= self.cap else None
        return self._cost[k].get(mask)

    def choice_at(self, mask: int, k: int) -> QubitSubset | None:
        self._check(mask, k)
        return None if k == 1 else self._choice[k].get(mask)

    def payload(self) -> dict:
        """``{header, rows}``: one row per subset index (the decimal mask
        value) with its qubit set and one cost per k, None when unreachable."""
        header = ["index", "qubits"] + [f"k={k}" for k in range(1, self.k_max + 1)]
        rows = [[mask, format_subset(mask)] + [self.cost_at(mask, k) for k in range(1, self.k_max + 1)]
                for mask in range(1, 1 << self.n)]
        return {"header": header, "rows": rows}

    def csv_string(self) -> str:
        return table_csv(self.payload())


def table_csv(payload: dict) -> str:
    """CSV text of a ``DpTable.payload()``; None cells render as N.A."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(payload["header"])
    for row in payload["rows"]:
        writer.writerow(["N.A" if c is None else c for c in row])
    return buf.getvalue()


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


def connect(s1: QubitSubset, s2: QubitSubset, w: WeightMatrix) -> int:
    """Number of two-qubit gates with one endpoint in each disjoint mask."""
    if s1 & s2:
        raise ValueError("qubit subsets overlap")
    total = 0
    m = w.m
    for i in subset_qubits(s1):
        row = m[i]
        for j in subset_qubits(s2):
            total += int(row[j])
    return total


def assignment_cost(assignment: PartitionAssignment, w: WeightMatrix) -> int:
    """Total inter-part weight of an assignment, summed over part pairs."""
    total = 0
    parts = assignment.parts
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            total += connect(parts[i], parts[j], w)
    return total


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


def _reconstruct(table: DpTable, k: int) -> list[QubitSubset]:
    mask = (1 << table.n) - 1
    parts = []
    for level in range(k, 1, -1):
        s = table.choice_at(mask, level)
        if s is None:
            raise QcpartError("memo table has no back-pointer for a reachable state")
        parts.append(s)
        mask ^= s
    parts.append(mask)
    return parts


def _solve(w: WeightMatrix, k: int, part_cap: int | None, cap: int | None,
           full_table: bool) -> DpTable:
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
    return DpTable(n, k, effective_cap,
                   *dpcore.solve(w.m, k, effective_cap, full_table=full_table))


def dp_partition(w: WeightMatrix, k: int, *, max_part_size: int | None = None,
                 keep_table: bool = False, cap: int | None = None) -> PartitionResult:
    """Split the qubit set into exactly k non-empty parts minimizing the
    number of two-qubit gates that cross parts.

    The optimum is exact; ties between equal-cost splits resolve toward the
    numerically lowest peeled submask, so the returned assignment is
    deterministic. ``max_part_size`` restricts every part to at most that
    many qubits. ``keep_table`` retains the full memo table on the result.
    ``cap`` overrides the qubit-count guardrail (default 24).
    """
    table = _solve(w, k, max_part_size, cap, keep_table)
    n = w.n
    cost = table.cost_at((1 << n) - 1, k)
    if cost is None:
        raise QcpartError("no feasible partition found for a feasible problem")
    assignment = PartitionAssignment.from_parts(n, _reconstruct(table, k))
    recount = assignment_cost(assignment, w)
    if cost != recount:
        raise QcpartError(f"DP cost {cost} differs from its assignment's recounted cost {recount}")
    return PartitionResult(
        assignment=assignment,
        cost=cost,
        table=table if keep_table else None,
        max_part_size=max_part_size,
    )


def dp_table(w: WeightMatrix, k: int, *, cap: int | None = None) -> DpTable:
    """Full memo table over every non-empty mask and 1 <= level <= k."""
    return _solve(w, k, None, cap, True)


_RGS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _rgs_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All set partitions of n elements as restricted growth strings, in
    lexicographic order, plus the block count of each row."""
    cached = _RGS_CACHE.get(n)
    if cached is not None:
        return cached
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
    _RGS_CACHE[n] = (labels, nblocks)
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


def oracle_partition(w: WeightMatrix, k: int, cap: int | None = None) -> PartitionResult:
    """Brute-force optimum: enumerate every partition of the qubits into
    exactly k non-empty blocks and score each directly from the weight
    matrix. Exponential (Bell numbers); guarded by ``cap``.

    Independent of the DP on purpose: different enumeration, different cost
    evaluation. Among equal-cost partitions the lexicographically first
    growth string wins.
    """
    n = w.n
    limit = oracle_cap() if cap is None else cap
    if n > limit:
        raise SizeCapError(
            f"{n} qubits exceeds the brute-force cap ({limit}); set {ORACLE_CAP_ENV} "
            f"or use dp_partition instead."
        )
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
