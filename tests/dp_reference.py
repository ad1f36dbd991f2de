"""Scalar reference for ``qcpart.dpcore.solve``: the level DP as one plain
Python loop over int masks, walking every (mask, peeled submask) pair.

Returns ``(cost_levels, choice_levels)`` where entry k >= 2 is a dict from
each reachable mask to its cost or its peeled submask (the numerically
lowest among the optimal ones); levels 0 and 1 are None. Without
``full_table`` level k < kmax holds the odd masks and level kmax only the
full mask.
"""

INF = 1 << 62


def reference_solve(w, kmax, cap, *, full_table=False):
    if kmax < 2:
        return [None, None], [None, None]
    size = 1 << w.shape[0]
    rows = [[int(x) for x in row] for row in w]
    # win[m] = total weight of pairs inside mask m, built by peeling the
    # lowest bit: win[m] = win[m - low] + sum_{j in m - low} w[low, j]
    win = [0] * size
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
        win[m] = win[rest] + acc
    cost_levels = [None, None]
    choice_levels = [None, None]
    for k in range(2, kmax + 1):
        if full_table:
            masks = range(1, size)
        elif k < kmax:
            masks = range(1, size, 2)
        else:
            masks = (size - 1,)
        prev = cost_levels[k - 1]
        cur = {}
        cho = {}
        for m in masks:
            if m.bit_count() < k:
                continue
            low = m & -m
            base = m ^ low
            wm = win[m]
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
                        q = cr + (wm - win[s] - win[rest])
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
