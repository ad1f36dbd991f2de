"""Subset DP behind the exact partitioner.

Level k of the memo table holds, for each qubit-set bitmask, the cheapest
total number of crossing two-qubit gates over all ways of splitting that set
into k non-empty parts, together with the peeled submask that achieves it.
The recurrence peels one part S' at a time:

    cost[k][S] = min over S' of crossing(S', S \\ S') + cost[k-1][S \\ S']

with cost[1][S] = 0 (or unreachable when S is above the part cap). Parts are
unordered, so the enumeration keeps the lowest-indexed qubit of S out of S'
(that part is peeled last); this halves the submask scan without excluding
any partition. crossing(A, B) = win[A|B] - win[A] - win[B], where win[m] is
the total weight inside mask m. Ties go to the numerically lowest peeled
submask.

The engine is vectorized with numpy. Fix the lowest qubit of S and write x
for its other n-1 bits. The recurrence is then a min-plus subset convolution
over x:

    cost[k][x] = win[x] + min over t <= x of A[t] + B[x \\ t]
    A[t] = -win[t]                 (unreachable when t is empty or above the cap)
    B[u] = cost[k-1][u] - win[u]

A packed key ``(A[t] << (n-1)) + t`` carries the peeled submask t in its low
bits, so one ``np.minimum.reduceat`` yields both the optimum and the lowest
optimal t. The n-1 bits split into up to 10 low bits, scanned in one gather
over a cached table of the 3^L disjoint low-bit pairs sorted by union, and
the high bits, whose 3^H disjoint pairs a Python loop walks block by block
(each peeled block is gathered once, then paired with every disjoint rest).
Only the full mask is needed at the last level of a partition, and there
the scan is one vector op over the 2^(n-1) submasks.

A full table solves every mask. The masks whose lowest qubit is b are the
same problem on qubits b..n-1, so the full table is n runs of the odd-mask
solve, each scattered into per-level arrays indexed by mask. Run time grows
as 3^n.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import SizeCapError

INF = 1 << 62  # cost of an unreachable state
_KEY_INF = 1 << 61  # packed key of an unreachable term; two of them fit in int64
_KEY_REACH = 1 << 60  # a packed sum at or above this is unreachable
LOW_BITS = 10


def _internal_weights(w: np.ndarray) -> np.ndarray:
    """win[m], the total weight of the pairs inside mask m, for all 2^n
    masks: win[m | 1 << i] = win[m] + sum of w[j, i] over j in m < 2^i."""
    win = np.zeros(1, dtype=np.int64)
    for i in range(w.shape[0]):
        row = np.zeros(1, dtype=np.int64)
        for j in range(i):
            row = np.concatenate([row, row + w[j, i]])
        win = np.concatenate([win, win + row])
    return win


def _popcounts(bits: int) -> np.ndarray:
    pc = np.zeros(1, dtype=np.int64)
    for _ in range(bits):
        pc = np.concatenate([pc, pc + 1])
    return pc


@lru_cache(maxsize=None)
def _pair_table(bits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 3^bits disjoint pairs (t, u) over ``bits`` bits, sorted by union
    t | u, and the offset of each union's first pair. t and u are int16
    (bits <= LOW_BITS) to keep the cached tables small."""
    t = np.zeros(1, dtype=np.int16)
    u = np.zeros(1, dtype=np.int16)
    for b in range(bits):
        t, u = np.concatenate([t, t | 1 << b, t]), np.concatenate([u, u, u | 1 << b])
    order = np.argsort(t | u, kind="stable")
    t, u = t[order], u[order]
    starts = np.searchsorted(t | u, np.arange(1 << bits))
    for a in (t, u, starts):
        a.setflags(write=False)
    return t, u, starts


def _convolve(akey: np.ndarray, bkey: np.ndarray, bits: int) -> np.ndarray:
    """min over t <= x of akey[t] + bkey[x ^ t], for every x below 2^bits."""
    low = min(bits, LOW_BITS)
    lo = 1 << low
    tl, ul, starts = _pair_table(low)
    out = np.full(1 << bits, _KEY_INF)
    peeled = np.empty(tl.size, dtype=np.int64)
    summed = np.empty(tl.size, dtype=np.int64)
    part = np.empty(lo, dtype=np.int64)
    high = (1 << (bits - low)) - 1
    for th in range(high + 1):
        # indices are in range; mode="raise" would buffer and bounds-check
        np.take(akey[th * lo:(th + 1) * lo], tl, out=peeled, mode="clip")
        uh = free = high ^ th
        while True:  # every uh disjoint from th
            np.take(bkey[uh * lo:(uh + 1) * lo], ul, out=summed, mode="clip")
            summed += peeled
            np.minimum.reduceat(summed, starts, out=part)
            block = out[(th | uh) * lo:((th | uh) + 1) * lo]
            np.minimum(block, part, out=block)
            if uh == 0:
                break
            uh = (uh - 1) & free
    return out


def _odd_levels(win: np.ndarray, kmax: int, cap: int, last_full_only: bool) -> list:
    """Levels 2..kmax over the masks that hold qubit 0 of ``win``'s qubits,
    indexed by mask >> 1, as (cost, peeled submask) array pairs. With
    ``last_full_only`` the last level holds only the full mask."""
    bits = win.size.bit_length() - 2
    size = 1 << bits
    wodd = win[1::2]
    pc = _popcounts(bits)
    akey = np.where((pc >= 1) & (pc <= cap), (-win[0::2] << bits) + np.arange(size), _KEY_INF)
    cost = np.where(pc < cap, 0, INF)  # level 1: the mask x plus qubit 0 fits the cap
    levels = []
    for k in range(2, kmax + 1):
        bkey = np.where(cost < INF, (cost - wodd) << bits, _KEY_INF)
        if last_full_only and k == kmax:
            key = np.full(size, _KEY_INF)
            key[-1] = (akey + bkey[::-1]).min()
        else:
            key = _convolve(akey, bkey, bits)
        reach = key < _KEY_REACH
        cost = np.where(reach, wodd + (key >> bits), INF)
        levels.append((cost, np.where(reach, (key & (size - 1)) << 1, 0)))
    return levels


def solve(w: np.ndarray, kmax: int, cap: int, *,
          full_table: bool = False) -> tuple[list, list]:
    """Run the level DP over an n x n weight array. ``cap`` bounds part sizes
    (pass n for unconstrained). ``full_table`` computes every mask at every
    level instead of only the states a final reconstruction can reach.

    Returns ``(cost_levels, choice_levels)``: for k >= 2, entry k is an int64
    array of costs (INF when unreachable) or of peeled submasks. A full table
    is indexed by mask; otherwise level k holds the odd masks, indexed by
    mask >> 1, and level kmax holds only the full mask. Levels 0 and 1 are
    None."""
    if kmax < 2:  # one part: no level to solve, and no 2^n weight array
        return [None, None], [None, None]
    n = w.shape[0]
    total = sum(sum(row[i + 1:]) for i, row in enumerate(w.tolist()))
    # |costs| and |win| <= total, so finite packed sums stay below _KEY_REACH
    # and sums with a _KEY_INF term stay above it
    if (total + 1) << n >= _KEY_REACH:
        raise SizeCapError(
            f"total weight {total} over {n} qubits exceeds the DP's 64-bit key range"
        )
    win = _internal_weights(w)
    if not full_table:
        levels = _odd_levels(win, kmax, cap, True)
        return [None, None] + [c for c, _ in levels], [None, None] + [s for _, s in levels]
    size = 1 << n
    costs = [np.full(size, INF) for _ in range(2, kmax + 1)]
    choices = [np.zeros(size, dtype=np.int64) for _ in range(2, kmax + 1)]
    for b in range(n):
        sl = slice(1 << b, None, 2 << b)  # masks whose lowest qubit is b
        for (c, s), cf, sf in zip(_odd_levels(win[::1 << b], kmax, cap, False), costs, choices):
            cf[sl] = c
            sf[sl] = s << b
    return [None, None] + costs, [None, None] + choices
