"""Independent checks on every job's output.

Nothing here calls qcpart: crossing counts come from the generated gate
list, and DP tables are checked against internal weights the benchmark
builds itself. Each check raises CheckError on the first violation.
"""

from __future__ import annotations

import numpy as np

from workloads import Job

NONE = -1  # unreachable table entry in the arrays built here


class CheckError(Exception):
    pass


def _require(ok, what: str) -> None:
    if not ok:
        raise CheckError(what)


def popcounts(n: int) -> np.ndarray:
    masks = np.arange(1 << n)
    pc = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        pc += (masks >> i) & 1
    return pc


def internal_weights(n: int, pairs: np.ndarray) -> np.ndarray:
    """win[m]: two-qubit gates with both endpoints in mask m."""
    masks = np.arange(1 << n)
    win = np.zeros(1 << n, dtype=np.int64)
    ends, counts = np.unique(np.sort(pairs, axis=1), axis=0, return_counts=True)
    for (a, b), c in zip(ends.tolist(), counts.tolist()):
        win += c * ((masks >> a) & (masks >> b) & 1)
    return win


def check_assignment(assignment, n: int, k: int, cap: int | None) -> np.ndarray:
    """K non-empty disjoint parts of 1-based qubits covering 1..n, each
    within the cap; returns the part label of every 0-based qubit."""
    _require(len(assignment) == k, f"{len(assignment)} parts, expected {k}")
    labels = np.full(n, -1, dtype=np.int64)
    for idx, part in enumerate(assignment):
        _require(len(part) > 0, f"part {idx} is empty")
        _require(cap is None or len(part) <= cap, f"part {idx} has {len(part)} > {cap} qubits")
        for q in part:
            _require(isinstance(q, int) and 1 <= q <= n, f"qubit {q!r} outside 1..{n}")
            _require(labels[q - 1] < 0, f"qubit {q} is in two parts")
            labels[q - 1] = idx
    _require((labels >= 0).all(), "some qubits are in no part")
    return labels


def crossing(labels: np.ndarray, pairs: np.ndarray) -> int:
    return int(np.count_nonzero(labels[pairs[:, 0]] != labels[pairs[:, 1]]))


def check_cost(job: Job, report: dict) -> None:
    """Shared checks on a partition or oracle report."""
    c = job.circuit
    _require(report.get("k") == job.k, "wrong K in report")
    _require(report.get("width") == c.n, "wrong width in report")
    _require(report.get("gate_count") == c.gates, "wrong gate count in report")
    labels = check_assignment(report["assignment"], c.n, job.k, job.cap)
    cost = report["cost"]
    _require(cost == crossing(labels, c.pairs),
             f"reported cost {cost} != {crossing(labels, c.pairs)} crossing gates")
    _require(job.expected_cost is None or cost == job.expected_cost,
             f"cost {cost} != expected {job.expected_cost}")


def check_partition(job: Job, report: dict, rng: np.random.Generator) -> None:
    check_cost(job, report)
    if job.trace:
        trace = report["trace"]
        _require(len(trace) == job.circuit.gates, "trace length != gate count")
        globals_ = sum(1 for e in trace if e["kind"] == "global")
        _require(globals_ == report["cost"], f"{globals_} global gates in trace, cost {report['cost']}")
    if job.table:
        check_cli_table(job, report, rng)


def check_oracle(job: Job, report: dict) -> None:
    check_cost(job, report)
    _require(report.get("dp_match") is True, "oracle --compare-dp reports no dp_match")
    _require(report.get("dp_cost") == report["cost"], "dp_cost differs from the oracle cost")


def _submasks(m: int) -> np.ndarray:
    """Every submask of m, as an array."""
    bits = [i for i in range(m.bit_length()) if (m >> i) & 1]
    idx = np.arange(1 << len(bits))
    out = np.zeros_like(idx)
    for t, b in enumerate(bits):
        out |= ((idx >> t) & 1) << b
    return out


def _optimum(m: int, prev: np.ndarray, win: np.ndarray, pc: np.ndarray, cap: int) -> int:
    """min over peeled parts s (non-empty, without m's lowest qubit, within
    the cap) of prev[m \\ s] + crossing(s, m \\ s); NONE if no s is feasible."""
    s = _submasks(m ^ (m & -m))[1:]
    s = s[pc[s] <= cap]
    rest = m ^ s
    ok = prev[rest] != NONE
    if not ok.any():
        return NONE
    s, rest = s[ok], rest[ok]
    return int((prev[rest] + win[m] - win[s] - win[rest]).min())


def check_levels(cost: list[np.ndarray], n: int, k: int, cap: int, win: np.ndarray,
                 pc: np.ndarray, rng: np.random.Generator, samples: int = 48) -> None:
    """Level 1 and reachability exactly; the Bellman optimum on the full
    mask and on a seeded sample of masks at every level."""
    full = (1 << n) - 1
    _require(cost[1][0] == NONE and (cost[1][1:] == np.where(pc[1:] <= cap, 0, NONE)).all(),
             "level 1 of the table is wrong")
    for level in range(2, k + 1):
        _require((cost[level][pc < level] == NONE).all(), f"level {level}: value below {level} qubits")
        masks = rng.integers(1, full + 1, size=samples).tolist() + [full]
        for m in masks:
            want = _optimum(m, cost[level - 1], win, pc, cap) if pc[m] >= level else NONE
            _require(cost[level][m] == want,
                     f"table[{m}, k={level}] = {cost[level][m]}, Bellman optimum {want}")


def check_cli_table(job: Job, report: dict, rng: np.random.Generator) -> None:
    n, k = job.circuit.n, job.k
    payload = report["dp_table"]
    _require(payload["header"] == ["index", "qubits"] + [f"k={j}" for j in range(1, k + 1)],
             "unexpected table header")
    rows = payload["rows"]
    _require(len(rows) == (1 << n) - 1, "table does not have a row per non-empty mask")
    _require([r[0] for r in rows] == list(range(1, 1 << n)), "table rows out of mask order")
    cost = [None]
    for level in range(1, k + 1):
        col = np.full(1 << n, NONE, dtype=np.int64)
        col[1:] = [NONE if r[1 + level] is None else r[1 + level] for r in rows]
        cost.append(col)
    _require(cost[k][(1 << n) - 1] == report["cost"], "table corner differs from the cost")
    pc = popcounts(n)
    check_levels(cost, n, k, job.cap or n, internal_weights(n, job.circuit.pairs), pc, rng)


def check_dp_table(job: Job, cost: list, choice: list, rng: np.random.Generator) -> None:
    """Read-back of every cost_at/choice_at: back-pointers Bellman-consistent
    at every state, the optimum itself on a sample."""
    n, k = job.circuit.n, job.k
    full = (1 << n) - 1
    cap = job.cap or n
    win = internal_weights(n, job.circuit.pairs)
    pc = popcounts(n)
    costs = [None] + [np.array([NONE] + [NONE if c is None else c for c in col], dtype=np.int64)
                      for col in cost]
    masks = np.arange(1 << n)
    for level in range(2, k + 1):
        cho = np.array([0] + [0 if s is None else s for s in choice[level - 1]], dtype=np.int64)
        have = costs[level] != NONE
        _require(((cho != 0) == have).all(), f"level {level}: back-pointer missing or extra")
        m, s = masks[have], cho[have]
        rest = m ^ s
        _require(((s & ~m) == 0).all(), f"level {level}: peeled part outside its mask")
        _require(((s & m & -m) == 0).all(), f"level {level}: peeled part holds the lowest qubit")
        _require((pc[s] <= cap).all(), f"level {level}: peeled part above the cap")
        prev = costs[level - 1][rest]
        _require((prev != NONE).all(), f"level {level}: back-pointer to an unreachable state")
        _require((costs[level][m] == prev + win[m] - win[s] - win[rest]).all(),
                 f"level {level}: cost != cost[m \\ s, k-1] + crossing(s, m \\ s)")
    _require(all(c is None for c in choice[0]), "level 1 has back-pointers")
    check_levels(costs, n, k, cap, win, pc, rng)
    _require(job.expected_cost is None or costs[k][full] == job.expected_cost,
             f"cost {costs[k][full]} != expected {job.expected_cost}")
