"""Exact work counts for the subset DP and the brute-force oracle.

The DP visits, at each level k = 2..K, every mask it keeps with at least k
qubits (a "state") and scans every non-empty submask of that mask with its
lowest qubit removed (a "pair"). Which masks a level keeps depends only on
the mode:

  * full table: every non-empty mask, at every level;
  * reachable states: masks holding qubit 0 below the top level, and only
    the full mask at level K.

A part-size cap filters pairs inside the scan but does not shorten it, so
the counts depend on (n, K, full table) alone.
"""

from __future__ import annotations

from math import comb


def dp_work(n: int, k: int, full_table: bool) -> tuple[int, int]:
    """(states, pairs) scanned by one DP solve over n qubits into k parts."""
    states = pairs = 0
    for level in range(2, k + 1):
        if full_table or level < k:
            # masks of size j: all C(n, j) of them, or the C(n-1, j-1) holding qubit 0
            for j in range(level, n + 1):
                masks = comb(n, j) if full_table else comb(n - 1, j - 1)
                states += masks
                pairs += masks * ((1 << (j - 1)) - 1)
        elif n >= level:
            states += 1
            pairs += (1 << (n - 1)) - 1
    return states, pairs


def dp_work_by_enumeration(n: int, k: int, full_table: bool) -> tuple[int, int]:
    """The same counts by walking the masks and submasks one by one."""
    full = (1 << n) - 1
    states = pairs = 0
    for level in range(2, k + 1):
        if full_table:
            masks = range(1, full + 1)
        elif level < k:
            masks = range(1, full + 1, 2)
        else:
            masks = (full,)
        for m in masks:
            if m.bit_count() < level:
                continue
            states += 1
            base = m ^ (m & -m)
            s = base
            while s:
                pairs += 1
                s = (s - 1) & base
    return states, pairs


def bell(n: int) -> int:
    """Number of set partitions of n elements, which the oracle scores all of."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]
