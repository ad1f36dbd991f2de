"""The vectorized DP engine against the scalar reference loop, and the
bounded-peel schedule against the dense one."""

import numpy as np
import pytest

from qcpart import SizeCapError, WeightMatrix, dp_partition, dp_table, qc_to_bigraph, weight_matrix
from qcpart import dpcore
from qcpart.partitioner import DpTable, _reconstruct
from conftest import build_random_circuit
from dp_reference import reference_solve


def _levels(levels: list) -> tuple[list, list]:
    """``dpcore.solve``'s (cost_levels, choice_levels) from (cost, choice) pairs."""
    return [None, None] + [c for c, _ in levels], [None, None] + [s for _, s in levels]


def _dense(w: np.ndarray, kmax: int, cap: int) -> tuple[list, list]:
    return _levels(dpcore._odd_levels(dpcore._internal_weights(w), kmax, cap, True))


def _bounded(w: np.ndarray, kmax: int, cap: int) -> tuple[list, list]:
    """The bounded schedule over every admissible peel, whatever ``plan``
    would pick."""
    win = dpcore._internal_weights(w)
    return _levels(dpcore._bounded_levels(win, kmax, cap, dpcore._admissible_peels(win, kmax, cap)))


def _random_w(rng, n: int, gates: int) -> np.ndarray:
    return weight_matrix(qc_to_bigraph(build_random_circuit(rng, n, gates))).m


def test_engine_matches_scalar_reference():
    # n = 12 and 13 exceed dpcore.LOW_BITS + 1, so the high-bit block loop runs;
    # few gates leave many zero weights, so many splits tie on cost
    rng = np.random.default_rng(404)
    for n in range(2, 14):
        for _ in range(3 if n <= 11 else 1):
            w = _random_w(rng, n, int(rng.integers(0, 3 * n + 1)))
            kmax = int(rng.integers(2, min(n, 5) + 1))
            for cap in (n, int(rng.integers(-(-n // kmax), n))):
                ref_cost, ref_choice = reference_solve(w, kmax, cap, full_table=True)
                table = DpTable(n, kmax, cap, *dpcore.solve(w, kmax, cap, full_table=True))
                for k in range(2, kmax + 1):
                    for mask in range(1, 1 << n):
                        cost, choice = table.cost_at(mask, k), table.choice_at(mask, k)
                        assert cost == ref_cost[k].get(mask), (n, kmax, cap, True, k, mask)
                        assert choice == ref_choice[k].get(mask), (n, kmax, cap, True, k, mask)
                        # plain ints: the CLI's --table JSON serializes them
                        assert cost is None or type(cost) is int
                        assert choice is None or type(choice) is int
                # the dense schedule is exact at every odd mask, indexed by mask >> 1
                ref_cost, ref_choice = reference_solve(w, kmax, cap)
                costs, choices = _dense(w, kmax, cap)
                for k in range(2, kmax + 1):
                    for mask in range(1, 1 << n, 2) if k < kmax else ((1 << n) - 1,):
                        cost = costs[k].item(mask >> 1)
                        assert (cost if cost < dpcore.INF else None) == ref_cost[k].get(mask), \
                            (n, kmax, cap, False, k, mask)
                        assert (choices[k].item(mask >> 1) or None) == ref_choice[k].get(mask), \
                            (n, kmax, cap, False, k, mask)
                # the bounded schedule and the planned solve are exact on the
                # reconstruction path: the full mask's cost, then every state's
                # cost and back-pointer down the path
                for schedule in (_bounded(w, kmax, cap), dpcore.solve(w, kmax, cap)):
                    costs, choices = schedule
                    mask = (1 << n) - 1
                    for k in range(kmax, 1, -1):
                        where = (n, kmax, cap, k, mask)
                        assert costs[k].item(mask >> 1) == ref_cost[k][mask], where
                        assert choices[k].item(mask >> 1) == ref_choice[k][mask], where
                        mask ^= ref_choice[k][mask]


def test_bounded_schedule_matches_dense_seeded():
    # 1 000 seeded cases: tight, loose and no part caps; the sparse circuits
    # leave many qubits idle and many weights equal, so splits tie on cost
    rng = np.random.default_rng(2024)
    for case in range(1000):
        n = int(rng.integers(2, 15 if case % 10 == 0 else 12))
        kmax = min(int(rng.integers(3, 7)), n)
        w = _random_w(rng, n, int(rng.integers(0, 3 * n + 1)))
        tight = -(-n // kmax)
        cap = (n, tight, int(rng.integers(tight, n + 1)))[case % 3]
        dense, bounded = _dense(w, kmax, cap), _bounded(w, kmax, cap)
        assert _reconstruct(n, kmax, *bounded, 1) == _reconstruct(n, kmax, *dense, 1), \
            (case, n, kmax, cap)


def test_plan_routes_schedules(monkeypatch):
    rng = np.random.default_rng(0)
    wide = dpcore._internal_weights(_random_w(rng, 16, 320))
    # a dense random circuit: the optimum peels lone qubits, so few peels are
    # admissible and the bounded schedule is far cheaper
    peels = dpcore.plan(wide, 4, 16, False)
    assert peels is not None and 0 < peels.size < (1 << 15) // 100
    assert dpcore.plan(wide, 4, 16, True) is None  # full tables stay dense
    assert dpcore.plan(wide, 2, 16, False) is None  # K=2 stays dense
    # a tight cap admits too many peels: the counted work sends it to dense
    assert dpcore.plan(wide, 4, 4, False) is None

    def no_bound(*args):
        raise AssertionError("the bound was computed below the floor")

    monkeypatch.setattr(dpcore, "_upper_bound", no_bound)
    small = dpcore._internal_weights(_random_w(rng, 10, 200))
    assert (3 - 2) * 3 ** 9 < dpcore.BOUND_FLOOR
    assert dpcore.plan(small, 3, 10, False) is None


def test_packed_key_range_guard():
    over = WeightMatrix(np.array([[0, 1 << 60], [1 << 60, 0]]))
    with pytest.raises(SizeCapError, match="key range"):
        dp_partition(over, 2)
    with pytest.raises(SizeCapError, match="key range"):
        dp_table(over, 2)
    assert dp_partition(over, 1).cost == 0  # one part: nothing is solved
    # weights just below the guard's limit at this width still give exact costs
    big = WeightMatrix(np.array([[0, 1 << 56, 0], [1 << 56, 0, 3], [0, 3, 0]]))
    assert dp_partition(big, 2).cost == 3
    assert dp_partition(big, 3).cost == (1 << 56) + 3
    assert dp_table(big, 3).cost_at(0b011, 2) == 1 << 56
