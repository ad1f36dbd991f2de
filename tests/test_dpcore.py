"""The vectorized DP engine against the scalar reference loop, its scan
over a peel set against brute force, and the bounded schedule and the
pruned search against the dense schedule."""

import tracemalloc
from collections import Counter
from functools import partial
from math import comb

import numpy as np
import pytest

from qcpart import (QcpartError, SizeCapError, WeightMatrix, dp_partition, dp_table, gen_qft,
                    qc_to_bigraph, weight_matrix)
from qcpart import dpcore
from qcpart.partitioner import DpTable
from conftest import build_random_circuit
from dp_reference import reference_solve


def _dense(w: np.ndarray, kmax: int, cap: int) -> list:
    scan = partial(dpcore._convolve, scratch=dpcore._scratch(w.shape[0] - 1))
    return dpcore._odd_levels(dpcore._internal_weights(w), kmax, cap, True, scan)


def _peels(w: np.ndarray, kmax: int, cap: int) -> tuple:
    """``win``, the upper bound, every admissible peel and its qubit count,
    whatever ``plan`` would pick."""
    win = dpcore._internal_weights(w)
    bound = dpcore._upper_bound(win, kmax, cap)
    return win, bound, *dpcore._admissible_peels(win, kmax, cap, bound)


def _bounded(win: np.ndarray, peels: np.ndarray, kmax: int, cap: int) -> list:
    """The bounded schedule's levels: the scan over ``peels`` only."""
    scratch = dpcore._scratch(win.size.bit_length() - 2)
    return dpcore._odd_levels(win, kmax, cap, True,
                              partial(dpcore._convolve, scratch=scratch, peels=peels))


def _searched(win: np.ndarray, bound: int, peels: np.ndarray, sizes: np.ndarray, kmax: int,
              cap: int, budget: int = 1 << 18) -> tuple | None:
    """The pruned search's cost and peels, or None past ``budget`` cells or
    surviving prefixes (sparse circuits at 6-13 qubits can need millions)."""
    return dpcore._search(win, kmax, cap, peels, sizes, bound, budget, budget)


def _reference_split(ref_cost: list, ref_choice: list, n: int, kmax: int) -> tuple:
    """The full mask's optimum and its peels, walked down the reference levels."""
    mask, peels = (1 << n) - 1, []
    for k in range(kmax, 1, -1):
        peels.append(ref_choice[k][mask])
        mask ^= peels[-1]
    return ref_cost[kmax][(1 << n) - 1], peels


def _random_w(rng, n: int, gates: int) -> np.ndarray:
    return weight_matrix(qc_to_bigraph(build_random_circuit(rng, n, gates))).m


def test_engine_matches_scalar_reference():
    # n = 12 and 13 exceed dpcore.LOW_BITS + 1, so the high-bit block loop runs;
    # few gates leave many zero weights, so many splits tie on cost
    rng = np.random.default_rng(404)
    searched = 0
    for n in range(2, 14):
        for _ in range(3 if n <= 11 else 1):
            w = _random_w(rng, n, int(rng.integers(0, 3 * n + 1)))
            kmax = int(rng.integers(2, min(n, 5) + 1))
            for cap in (n, int(rng.integers(-(-n // kmax), n))):
                ref_cost, ref_choice = reference_solve(w, kmax, cap, full_table=True)
                table = DpTable(dpcore.solve(w, kmax, cap, full_table=True)[2])
                for k in range(2, kmax + 1):
                    for mask in range(1, 1 << n):
                        cost, choice = table.cost_at(mask, k), table.choice_at(mask, k)
                        assert cost == ref_cost[k].get(mask), (n, kmax, cap, True, k, mask)
                        assert choice == ref_choice[k].get(mask), (n, kmax, cap, True, k, mask)
                        # plain ints: the CLI's --table JSON serializes them
                        assert cost is None or type(cost) is int
                        assert choice is None or type(choice) is int
                # the dense schedule is exact at every odd mask, indexed by
                # mask >> 1; its top level holds the full mask alone
                ref_cost, ref_choice = reference_solve(w, kmax, cap)
                levels = _dense(w, kmax, cap)
                assert levels[-1][0].size == levels[-1][1].size == 1
                for k in range(2, kmax + 1):
                    costs, choices = levels[k - 2]
                    for mask in range(1, 1 << n, 2) if k < kmax else ((1 << n) - 1,):
                        at = mask >> 1 if k < kmax else 0
                        cost = costs.item(at)
                        assert (cost if cost < dpcore.INF else None) == ref_cost[k].get(mask), \
                            (n, kmax, cap, False, k, mask)
                        assert (choices.item(at) or None) == ref_choice[k].get(mask), \
                            (n, kmax, cap, False, k, mask)
                # the bounded schedule is exact at the states its walk visits:
                # each one's cost and back-pointer, from the full mask down
                want = _reference_split(ref_cost, ref_choice, n, kmax)
                win, bound, peels, sizes = _peels(w, kmax, cap)
                levels = _bounded(win, peels, kmax, cap)
                mask = (1 << n) - 1
                for k, (costs, choices) in zip(range(kmax, 1, -1), reversed(levels)):
                    at, where = (mask >> 1 if k < kmax else 0), (n, kmax, cap, k, mask)
                    assert costs.item(at) == ref_cost[k][mask], where
                    assert choices.item(at) == ref_choice[k][mask], where
                    mask ^= choices.item(at)
                # the walk, the search and the planned solve return the split
                splits = [dpcore._walk(levels, 1), dpcore.solve(w, kmax, cap)[:2]]
                if kmax >= 3:
                    splits.append(_searched(win, bound, peels, sizes, kmax, cap))
                    searched += splits[-1] is not None
                for split in filter(None, splits):
                    assert split == want, (n, kmax, cap)
    assert searched >= 25


def _brute_scan(akey: np.ndarray, bkey: np.ndarray, peels: np.ndarray) -> np.ndarray:
    """min over t in peels, t <= x, of akey[t] + bkey[x ^ t], for every x."""
    x = np.arange(akey.size)
    want = np.full(akey.size, dpcore._KEY_INF)
    for t in peels.tolist():
        above = x[(x & t) == t]
        want[above] = np.minimum(want[above], akey[t] + bkey[above ^ t])
    return want


def test_scan_over_a_peel_set_matches_brute_force(monkeypatch):
    # 300 seeded cases at 1-12 bits, each with its own low/high bit split
    # and a random peel subset: sparse ones leave blocks with no peel and
    # unions with no pair, dense ones leave blocks short of one low peel and
    # block 0 complete but for the empty peel, which is never a peel
    rng = np.random.default_rng(2525)
    seen = Counter()
    for case in range(300):
        bits = int(rng.integers(1, 13))
        low = int(rng.integers(max(1, bits - 6), bits + 1))  # at most 3^6 block pairs
        monkeypatch.setattr(dpcore, "LOW_BITS", low)
        akey, bkey = rng.integers(-40, 40, size=(2, 1 << bits)) << bits
        akey[rng.random(1 << bits) < 0.2] = dpcore._KEY_INF
        bkey[rng.random(1 << bits) < 0.2] = dpcore._KEY_INF
        akey[0] = dpcore._KEY_INF
        keep = rng.random(1 << bits) < rng.choice([0.05, 0.3, 0.9, 0.99, 1])
        keep[0] = False
        peels = np.flatnonzero(keep)
        got = dpcore._convolve(akey, bkey, dpcore._scratch(bits), peels)
        want = _brute_scan(akey, bkey, peels)
        reach = want < dpcore._KEY_REACH
        assert np.array_equal(got < dpcore._KEY_REACH, reach), (case, bits, low)
        assert np.array_equal(got[reach], want[reach]), (case, bits, low)
        for th, held in enumerate(keep.reshape(-1, 1 << low)):
            lows = np.flatnonzero(held)
            short = (1 << low) - (th == 0) - lows.size  # low peels missing
            seen["no peel" if not lows.size else "complete" if not short else
                 "one short" if short == 1 else "partial"] += 1
            if th == 0 and not short:
                seen["block 0 complete"] += 1
            if lows.size:
                paired = ((np.arange(1 << low)[:, None] & lows) == lows).any(axis=1)
                seen["union with no pair"] += int((~paired).sum())
    assert min(seen.values()) >= 20, seen
    assert len(seen) == 6, seen


def test_scan_tables_follow_the_low_peels(monkeypatch):
    # 5 bits, 2 low: 8 blocks of 4 low masks. A complete low set takes the
    # whole table (block 0 needs no empty peel, so block 6's equal set is
    # incomplete), a block without peels is skipped, and equal incomplete
    # low sets share one table
    monkeypatch.setattr(dpcore, "LOW_BITS", 2)
    peels = np.array([1, 2, 3, 4, 5, 8, 9, 10, 11, 16, 17, 22, 25, 26, 27])
    shared = {}
    blocks = dict(dpcore._blocks(5, peels, shared))
    assert list(blocks) == [0, 1, 2, 4, 5, 6]
    whole = dpcore._pair_table(2)
    for th in (0, 2):
        assert blocks[th][3].size == 0 and all(a is b for a, b in zip(blocks[th], whole))
    assert blocks[1] is blocks[4] and list(shared.values()) == [blocks[1], blocks[6]]
    assert blocks[6][3].tolist() == [0]  # no pair of union 0 peels a low peel
    # block 5 holds low peel 2 alone: pairs (2, 0) and (2, 1), of unions 2
    # and 3; unions 0 and 1 have no pair
    tl, ul, starts, empty = blocks[5]
    assert [tl.tolist(), ul.tolist(), starts.tolist(), empty.tolist()] == \
        [[2, 2], [0, 1], [0, 0, 0, 1], [0, 1]]
    assert tl.dtype == ul.dtype == np.intp


def test_bounded_schedule_matches_dense_seeded():
    # 1 000 seeded cases: tight, loose and no part caps; the sparse circuits
    # leave many qubits idle and many weights equal, so splits tie on cost.
    # The search runs on each case with K >= 3 too, within a budget.
    rng = np.random.default_rng(2024)
    searched = 0
    for case in range(1000):
        n = int(rng.integers(2, 15 if case % 10 == 0 else 12))
        kmax = min(int(rng.integers(3, 7)), n)
        w = _random_w(rng, n, int(rng.integers(0, 3 * n + 1)))
        tight = -(-n // kmax)
        cap = (n, tight, int(rng.integers(tight, n + 1)))[case % 3]
        dense = dpcore._walk(_dense(w, kmax, cap), 1)
        win, bound, peels, sizes = _peels(w, kmax, cap)
        assert dpcore._walk(_bounded(win, peels, kmax, cap), 1) == dense, (case, n, kmax, cap)
        split = _searched(win, bound, peels, sizes, kmax, cap) if kmax >= 3 else None
        if split is not None:
            searched += 1
            assert split == dense, (case, n, kmax, cap)
    assert searched >= 850


def test_bounded_scan_matches_dense_at_every_state():
    # over every peel of 1..cap qubits the bounded scan skips nothing, so it
    # gives the dense levels at every odd mask below level K and at the full
    # mask at level K; cap n-1 admits the all-ones peel too
    rng = np.random.default_rng(1314)
    for case in range(400):
        n = int(rng.integers(3, 14 if case % 10 == 0 else 11))
        kmax = min(int(rng.integers(3, 6)), n)
        w = _random_w(rng, n, int(rng.integers(0, 3 * n + 1)))
        tight = -(-n // kmax)
        cap = (tight, int(rng.integers(tight, n)))[case % 2]
        win = dpcore._internal_weights(w)
        sizes = np.bitwise_count(np.arange(1 << (n - 1)))
        bounded = _bounded(win, np.flatnonzero((sizes >= 1) & (sizes <= cap)), kmax, cap)
        for k, (got, want) in enumerate(zip(bounded, _dense(w, kmax, cap)), start=2):
            states = slice(None) if k < kmax else slice(-1, None)
            for a, b in zip(got, want):
                assert np.array_equal(a[states], b[states]), (case, n, kmax, cap, k)


def test_search_matches_dense_seeded():
    # 12-16 qubits, K=3..6: sparse tie-heavy and dense random circuits with
    # no, tight and loose caps, and qft, whose complete graph costs
    # C(n,2) - C(n-K+1,2) by peeling K-1 single qubits
    rng = np.random.default_rng(12)
    searched = 0
    for case in range(48):
        n = int(rng.choice([12, 13, 14, 15, 16], p=[0.3, 0.3, 0.2, 0.1, 0.1]))
        kmax = int(rng.integers(3, 7))
        qft = case % 8 == 0
        if qft:
            w = weight_matrix(qc_to_bigraph(gen_qft(n))).m
        else:
            w = _random_w(rng, n, int(rng.choice([n, 2 * n, 20 * n])))
        tight = -(-n // kmax)
        cap = n if qft else (n, tight, int(rng.integers(tight + 1, n)))[case % 3]
        split = _searched(*_peels(w, kmax, cap), kmax, cap, 1 << 20)
        if split is None:
            continue
        searched += 1
        assert split == dpcore._walk(_dense(w, kmax, cap), 1), (case, n, kmax, cap)
        if qft:
            assert split[0] == comb(n, 2) - comb(n - kmax + 1, 2), (case, n, kmax)
    assert searched >= 32


def _job(seed: int, n: int, gates: int) -> np.ndarray:
    return _random_w(np.random.default_rng(seed), n, gates)


def test_plan_routes_schedules(monkeypatch):
    rng = np.random.default_rng(0)
    wide = dpcore._internal_weights(_random_w(rng, 16, 320))
    budgets, found = [], []
    search = dpcore._search

    def spy(*args):
        budgets.append(args[-2])
        found.append(search(*args))
        return found[-1]

    monkeypatch.setattr(dpcore, "_search", spy)
    # a dense random circuit: the optimum peels lone qubits, so few peels are
    # admissible and the search examines few cells
    assert dpcore.plan(wide, 4, 16, False)[0] == "search"
    qft = dpcore._internal_weights(weight_matrix(qc_to_bigraph(gen_qft(14))).m)
    assert dpcore.plan(qft, 3, 14, False)[0] == "search"
    # the search may examine cells worth half the scan's pair-ops,
    # (K-2) * the sum over admissible peels t of 2^(n-1-|t|)
    for (win, kmax), budget in zip(((wide, 4), (qft, 3)), budgets):
        _, sizes = dpcore._admissible_peels(win, kmax, 16, dpcore._upper_bound(win, kmax, 16))
        assert budget == (kmax - 2) * int((1 << (win.size.bit_length() - 2 - sizes)).sum()) \
            // (2 * dpcore.SEARCH_CELL_COST)
    assert dpcore.plan(wide, 4, 16, True) == ("scan", None)  # full tables scan every peel
    assert dpcore.plan(wide, 2, 16, False) == ("scan", None)  # and so does K=2
    # a tight cap admits too many peels for the search's budget: the scan
    # takes the admissible peels
    schedule, peels = dpcore.plan(wide, 4, 4, False)
    bound = dpcore._upper_bound(wide, 4, 4)
    assert found[-1] is None and schedule == "scan"
    assert np.array_equal(peels, dpcore._admissible_peels(wide, 4, 4, bound)[0])
    # with the search out of budget, the scan still takes few of the wide case's peels
    monkeypatch.setattr(dpcore, "_search", lambda *args: None)
    schedule, peels = dpcore.plan(wide, 4, 16, False)
    assert schedule == "scan" and 0 < peels.size < (1 << 15) // 100
    monkeypatch.undo()

    def no_bound(*args):
        raise AssertionError("the bound was computed below the floor")

    monkeypatch.setattr(dpcore, "_upper_bound", no_bound)
    small = dpcore._internal_weights(_random_w(rng, 10, 200))
    assert (3 - 2) * 3 ** 9 < dpcore.BOUND_FLOOR
    assert dpcore.plan(small, 3, 10, False) == ("scan", None)


def test_capped_bound_routes_the_search():
    # the capped optimum equals the uncapped one, 3; the rest cannot hold
    # n-K+1 = 13 qubits, so only a split within the cap bounds the optimum
    w = _job(5, 16, 32)
    win = dpcore._internal_weights(w)
    assert dpcore._upper_bound(win, 4, 10) <= 4
    schedule, (cost, _) = dpcore.plan(win, 4, 10, False)
    assert schedule == "search" and cost == 3
    result = dp_partition(WeightMatrix(w), 4, max_part_size=10)
    assert result.cost == 3 and max(result.assignment.sizes()) <= 10


def _plan_peak(monkeypatch, win: np.ndarray, kmax: int, cap: int) -> tuple:
    """``plan``'s schedule, what ``_search`` returned and the peak bytes
    tracemalloc saw while it ran."""
    searched = []
    search = dpcore._search

    def spy(*args):
        searched.append(search(*args))
        return searched[-1]

    monkeypatch.setattr(dpcore, "_search", spy)
    tracemalloc.start()
    try:
        schedule, _ = dpcore.plan(win, kmax, cap, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return schedule, searched, peak


@pytest.mark.parametrize("case", ["no two-qubit gates", "loose bound"])
def test_search_memory_guard(monkeypatch, case):
    # with every weight 0, or with U forced to 23, over 30 000 of the 2^15
    # peels are admissible: extending the one-peel prefixes would take about
    # 5e8 cells, so the search gives up before allocating them and the solve
    # falls back
    if case == "no two-qubit gates":
        w, cap = np.zeros((16, 16), dtype=np.int64), 16
    else:
        w, cap = _job(5, 16, 32), 10
        monkeypatch.setattr(dpcore, "_upper_bound", lambda *args: 23)
    win = dpcore._internal_weights(w)
    schedule, searched, peak = _plan_peak(monkeypatch, win, 4, cap)
    assert searched == [None] and schedule == "scan"
    assert peak < 32 * (1 << 15) * 8  # 32 arrays of 2^(n-1) int64
    assert dp_partition(WeightMatrix(w), 4, max_part_size=cap).cost == (0 if cap == 16 else 3)


def test_search_rejects_a_bound_below_every_split():
    w = _job(5, 16, 32)
    win = dpcore._internal_weights(w)
    peels, sizes = dpcore._admissible_peels(win, 4, 16, 3)
    with pytest.raises(QcpartError, match="no split within the cost 2"):
        dpcore._search(win, 4, 16, peels, sizes, 2, 1 << 62, 1 << 62)


def test_search_gives_up_or_stops_early():
    # qft:8 is a complete graph: a peel of s qubits cuts s * (8 - s) >= 7
    win = dpcore._internal_weights(weight_matrix(qc_to_bigraph(gen_qft(8))).m)
    bound = dpcore._upper_bound(win, 3, 8)
    peels, sizes = dpcore._admissible_peels(win, 3, 8, bound)
    assert dpcore._search(win, 3, 8, peels, sizes, bound, 1 << 62, 1 << 62)[0] == 13
    # a budget below the first extension's cells: None before any is examined
    assert dpcore._search(win, 3, 8, peels, sizes, bound, peels.size - 1, 1 << 62) is None
    # no first peel meets a bound of 6, so the search stops before the last peel
    with pytest.raises(QcpartError, match="no split within the cost 6"):
        dpcore._search(win, 3, 8, peels, sizes, 6, 1 << 62, 1 << 62)


def test_full_tables_share_no_scratch_state():
    # each solve allocates its own convolution scratch: a 12-qubit full
    # table solved between two 13-qubit ones equals a fresh solve
    rng = np.random.default_rng(1213)
    w12, w13 = (_random_w(rng, n, 6 * n) for n in (12, 13))
    fresh = dpcore.solve(w12, 4, 12, full_table=True)[2]
    first = dpcore.solve(w13, 4, 5, full_table=True)[2]
    between = dpcore.solve(w12, 4, 12, full_table=True)[2]
    last = dpcore.solve(w13, 4, 5, full_table=True)[2]
    for want, got in ((fresh, between), (first, last)):
        assert len(want) == len(got) == 4  # levels 1..4
        for (cost, choice), (cost2, choice2) in zip(want, got):
            assert np.array_equal(cost, cost2) and np.array_equal(choice, choice2)


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


def test_solve_returns_plain_ints_on_every_route(monkeypatch):
    # every route hands back the same split: the full mask's optimum and
    # K-1 peels, all plain ints
    rng = np.random.default_rng(0)
    wide = _random_w(rng, 16, 320)
    small = _random_w(rng, 10, 200)
    routes = {}

    def check(route, w, kmax, full_table=False):
        cost, peels, levels = dpcore.solve(w, kmax, w.shape[0], full_table=full_table)
        assert type(cost) is int and len(peels) == kmax - 1, route
        assert all(type(peel) is int and peel for peel in peels), route
        assert (levels is None) != full_table, route
        routes[route] = cost, peels

    assert dpcore.plan(dpcore._internal_weights(wide), 4, 16, False)[0] == "search"
    check("search", wide, 4)
    check("full table", small, 3, True)
    assert dpcore.plan(dpcore._internal_weights(small), 3, 10, False) == ("scan", None)
    check("scan of every peel", small, 3)
    check("K=1", small, 1)
    assert routes["K=1"] == (0, [])
    monkeypatch.setattr(dpcore, "_search", lambda *args: None)
    schedule, peels = dpcore.plan(dpcore._internal_weights(wide), 4, 16, False)
    assert schedule == "scan" and peels is not None
    check("scan of admissible peels", wide, 4)
    assert routes["search"] == routes["scan of admissible peels"]
    assert routes["scan of every peel"] == routes["full table"]


def test_partition_top_level_keeps_one_entry():
    # a K=2 partition solve holds no top-level array of 2^(n-1) entries and
    # no convolution scratch: its peak stays under 7.5 arrays of 2^(n-1)
    # int64, win's 2^n included
    n = 18
    w = _job(1818, n, 20 * n)
    tracemalloc.start()
    try:
        cost, peels, _ = dpcore.solve(w, 2, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (cost, peels) == dpcore._walk(_dense(w, 2, n), 1)
    assert peak < 7.5 * (1 << n - 1) * 8
