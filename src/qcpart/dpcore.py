"""Subset DP behind the exact partitioner.

Level k of the memo table holds, for each qubit-set bitmask, the cheapest
total number of crossing two-qubit gates over all ways of splitting that set
into k non-empty parts, together with the peeled submask that achieves it.
The recurrence peels one part S' at a time:

    cost[k][S] = min over S' of crossing(S', S \\ S') + cost[k-1][S \\ S']

with cost[1][S] = 0. Parts are unordered, so the enumeration keeps the
lowest-indexed qubit of S out of S' (that part is peeled last); this halves
the submask scan without excluding any partition. crossing() is evaluated in
O(1) from precomputed internal weights: crossing(A, B) = win[A|B] - win[A]
- win[B]. Ties go to the numerically lowest peeled submask.

The DP is one scalar loop over plain-int masks, run on one thread. The
internal weights are a dense list over all 2^n masks, and each level is a
dict of its reachable states. Run time grows as 3^n.
"""

from __future__ import annotations

import numpy as np

INF = 1 << 62


def solve(w: np.ndarray, kmax: int, cap: int, *,
          full_table: bool = False) -> tuple[list, list]:
    """Run the level DP over an n x n weight array. ``cap`` bounds part sizes
    (pass n for unconstrained). ``full_table`` computes every mask at every
    level instead of only the states a final reconstruction can reach.

    Returns ``(cost_levels, choice_levels)``: for k >= 2, entry k maps each
    reachable mask to its cost and peeled submask; levels 0 and 1 are None."""
    if kmax < 2:  # one part: no level to solve, and no 2^n weight list
        return [None, None], [None, None]
    size = 1 << w.shape[0]
    rows = [[int(x) for x in row] for row in w]
    # win[m] = total weight of pairs inside mask m, built by peeling the
    # lowest bit: win[m] = win[m - low] + sum_{j in m - low} w[low, j]
    win_list = [0] * size
    for m in range(1, size):
        low = (m & -m).bit_length() - 1
        rest = m & (m - 1)
        row = rows[low]
        acc = 0
        t = rest
        while t:
            j = (t & -t).bit_length() - 1
            acc += row[j]
            t &= t - 1
        win_list[m] = win_list[rest] + acc
    win = win_list.__getitem__
    cost_levels: list = [None, None]
    choice_levels: list = [None, None]
    for k in range(2, kmax + 1):
        if full_table:
            masks = range(1, size)
        elif k < kmax:
            masks = range(1, size, 2)
        else:
            masks = (size - 1,)
        prev = cost_levels[k - 1]
        cur: dict[int, int] = {}
        cho: dict[int, int] = {}
        for m in masks:
            if m.bit_count() < k:
                continue
            low = m & -m
            base = m ^ low
            wm = win(m)
            best = INF
            bestsub = -1
            s = base
            while s:
                if s.bit_count() <= cap:
                    rest = m ^ s
                    if k == 2:
                        cr = 0 if rest.bit_count() <= cap else INF
                    else:
                        cr = prev.get(rest, INF)
                    if cr < INF:
                        q = cr + (wm - win(s) - win(rest))
                        if q <= best:
                            best = q
                            bestsub = s
                s = (s - 1) & base
            if best < INF:
                cur[m] = best
                cho[m] = bestsub
        cost_levels.append(cur)
        choice_levels.append(cho)
    return cost_levels, choice_levels
