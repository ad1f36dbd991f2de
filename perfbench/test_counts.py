"""Checks on the benchmark's own counting and checking code.

    python3 -m pytest perfbench/test_counts.py   (or: python3 perfbench/test_counts.py)
"""

from __future__ import annotations

import numpy as np

import check
from counts import bell, dp_work, dp_work_by_enumeration
from workloads import Circuit, Job


def test_closed_form_matches_enumeration():
    for n in range(1, 9):
        for k in range(1, 5):
            for full in (False, True):
                assert dp_work(n, k, full) == dp_work_by_enumeration(n, k, full), (n, k, full)


def test_closed_form_values_of_the_workloads():
    assert dp_work(16, 4, False) == (65_520, 28_665_030)
    assert dp_work(14, 4, True) == (48_561, 7_124_029)
    assert dp_work(13, 4, True) == (24_092, 2_365_896)  # the cap does not shorten the scan


def test_bell_numbers():
    assert [bell(n) for n in range(1, 10)] == [1, 2, 5, 15, 52, 203, 877, 4140, 21147]


def _job() -> Job:
    # 4 qubits; two gates on (0,1), one on (1,2), three on (2,3)
    pairs = np.array([(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (2, 3)])
    return Job("tiny", "partition", Circuit(4, 7, pairs), 2)


def test_check_cost_recounts_crossings():
    report = {"k": 2, "width": 4, "gate_count": 7, "assignment": [[1, 2], [3, 4]], "cost": 1}
    check.check_cost(_job(), report)
    for bad in ({"cost": 2}, {"assignment": [[1, 2], [2, 3, 4]]}, {"assignment": [[1, 2, 3, 4]]}):
        try:
            check.check_cost(_job(), {**report, **bad})
        except check.CheckError:
            continue
        raise AssertionError(f"accepted {bad}")


def test_table_check_finds_a_wrong_entry():
    job = _job()
    n, k = 4, 2
    win = check.internal_weights(n, job.circuit.pairs)
    pc = check.popcounts(n)
    level1 = np.where(pc > 0, 0, check.NONE)
    level2 = np.full(1 << n, check.NONE)
    for m in range(1, 1 << n):
        if pc[m] >= 2:
            level2[m] = check._optimum(m, level1, win, pc, n)
    rng = np.random.default_rng(0)
    check.check_levels([None, level1, level2], n, k, n, win, pc, rng)
    level2[(1 << n) - 1] += 1
    try:
        check.check_levels([None, level1, level2], n, k, n, win, pc, rng)
    except check.CheckError:
        return
    raise AssertionError("accepted a corner that is not the optimum")


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
    print("ok")
