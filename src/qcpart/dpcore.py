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

A partition solve with K >= 3 may instead run the bounded-peel schedule.
Let U be the cost of any feasible K-split within the cap. Every part P of
an optimal split then has cut(P, V \\ P) <= OPT <= U and at most
min(cap, n-K+1) qubits. U is the better of two cheap splits: the K-1
lowest-degree qubits as singletons (when the rest fits the cap) and a
balanced split in qubit order. The cut of every candidate peel t is one
vector op over the even masks, win[-1] - win[0::2] - win[-1::-2] (the
second term is win[t], the third win[V \\ t]), so the admissible
peels T are found before any level runs. Levels 2..K-1 then take the
packed-key minimum over T only, one np.minimum per peel over the strided
view of the states that contain it, and the last level is one gather over
T. Skipping the other peels changes nothing on the reconstruction path: a
peel that is optimal at a state on the path extends to an optimal split,
all of whose parts lie in T, so the path's costs are exact and its
lowest optimal peel is the dense schedule's. Every other entry of a
bounded level may sit above its true optimum (never below it).

``plan`` picks the schedule from (win, K, cap) by counted work, never by
measured time. The dense schedule costs 3^(n-1) pair-ops per level. The
bounded one updates the sum over t in T of 2^(n-1-|t|) states per level,
each charged PEEL_ELEMENT_COST pair-ops, plus PEEL_CHARGE pair-ops per peel
for its numpy calls. Both constants were fitted on a 2-core Xeon VM, where
a dense pair-op takes about 2.5 ns, a bounded update about 5 ns and a
peel's calls about 10 us. Full tables, K = 2 and solves whose
(K-2)*3^(n-1) is below BOUND_FLOOR stay dense without computing U.

A full table solves every mask. The masks whose lowest qubit is b are the
same problem on qubits b..n-1, so the full table is n runs of the odd-mask
solve, each scattered into per-level arrays indexed by mask. Run time grows
as 3^n. It always runs the dense schedule, so every entry is exact.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby

import numpy as np

from .errors import SizeCapError

INF = 1 << 62  # cost of an unreachable state
_KEY_INF = 1 << 61  # packed key of an unreachable term; two of them fit in int64
_KEY_REACH = 1 << 60  # a packed sum at or above this is unreachable
LOW_BITS = 10
BOUND_FLOOR = 3 ** 11  # fewer pair-ops than this: dense, no bound computed
PEEL_ELEMENT_COST = 2  # dense pair-ops per state a bounded peel updates
PEEL_CHARGE = 4096  # dense pair-ops charged per peel and level


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


def _upper_bound(win: np.ndarray, kmax: int, cap: int) -> int | None:
    """Cost of the better of two cheap feasible kmax-splits within the cap, or
    None when neither is feasible: the kmax - 1 lowest-degree qubits as
    singletons (when the rest fits the cap), and a balanced split in qubit
    order. A qubit's degree is win[V] - win[V without it]."""
    n = win.size.bit_length() - 1
    full = win.size - 1
    costs = []
    if n - kmax + 1 <= cap:
        deg = win[-1] - win[full ^ (1 << np.arange(n))]
        rest = full ^ int((1 << np.argsort(deg, kind="stable")[:kmax - 1]).sum())
        costs.append(int(win[-1] - win[rest]))
    if -(-n // kmax) <= cap:
        parts = [int((1 << q).sum()) for q in np.array_split(np.arange(n), kmax)]
        costs.append(int(win[-1] - win[parts].sum()))
    return min(costs, default=None)


def _admissible_peels(win: np.ndarray, kmax: int, cap: int) -> np.ndarray | None:
    """Every peel t (a mask over qubits 1..n-1 of ``win``, shifted down one
    bit) that can be a part of an optimal kmax-split within the cap, in
    ascending order: cut(t, V \\ t) at most ``_upper_bound`` and at most
    min(cap, n-kmax+1) qubits. None when there is no bound."""
    bound = _upper_bound(win, kmax, cap)
    if bound is None:
        return None
    bits = win.size.bit_length() - 2
    cut = win[-1] - win[0::2] - win[-1::-2]  # win[V] - win[t] - win[V \ t]
    pc = _popcounts(bits)
    return np.flatnonzero((cut <= bound) & (pc >= 1) & (pc <= min(cap, bits + 2 - kmax)))


def plan(win: np.ndarray, kmax: int, cap: int, full_table: bool) -> np.ndarray | None:
    """The admissible peels when the bounded schedule does less counted
    work than the dense one; None to run the dense schedule."""
    bits = win.size.bit_length() - 2
    dense = 3 ** bits
    if full_table or kmax < 3 or (kmax - 2) * dense < BOUND_FLOOR:
        return None
    peels = _admissible_peels(win, kmax, cap)
    if peels is None:
        return None
    updates = int((1 << (bits - _popcounts(bits)[peels])).sum())
    work = PEEL_ELEMENT_COST * updates + PEEL_CHARGE * peels.size
    return peels if work < dense else None


def _peel_views(t: int, bits: int) -> tuple:
    """How to view the states that contain peel t, and their rests x \\ t,
    in an array of 2^bits masks: reshape to one axis per run of bits that
    are all in t or all out of it (highest run first), index t's runs at
    all-ones or at zero, then order the free axes for iteration. A
    contiguous lowest run of at least 8 masks stays innermost; a shorter one
    would make every inner loop that short, so then the longest run goes
    innermost instead. Returns (shape, index with t, index of rest, axes)."""
    shape, with_t, rest = [], [], []
    for bit, run in groupby(format(t, f"0{bits}b")):
        size = 1 << len(list(run))
        shape.append(size)
        with_t.append(size - 1 if bit == "1" else slice(None))
        rest.append(0 if bit == "1" else slice(None))
    free = [size for size, i in zip(shape, rest) if isinstance(i, slice)]
    axes = range(len(free))
    if free and free[-1] < 8:
        axes = sorted(axes, key=free.__getitem__)
    return tuple(shape), tuple(with_t), tuple(rest), axes


def _bounded_levels(win: np.ndarray, kmax: int, cap: int, peels: np.ndarray) -> list:
    """``_odd_levels(win, kmax, cap, True)`` with every peel outside ``peels``
    skipped. Level k < kmax takes, for each peel t, one np.minimum over the
    strided view of the states that contain t, against the view of their
    rests x \\ t (see ``_peel_views``); the last level is one gather over
    the peels."""
    bits = win.size.bit_length() - 2
    size = 1 << bits
    wodd = win[1::2]
    akey = (-win[0::2][peels] << bits) + peels
    views = [_peel_views(t, bits) for t in peels.tolist()]
    cost = np.where(_popcounts(bits) < cap, 0, INF)  # level 1, as in _odd_levels
    levels = []
    for k in range(2, kmax + 1):
        bkey = np.where(cost < INF, (cost - wodd) << bits, _KEY_INF)
        key = np.full(size, _KEY_INF)
        if k == kmax:
            key[-1] = (akey + bkey[(size - 1) ^ peels]).min()
        else:
            for a, (shape, with_t, rest, axes) in zip(akey.tolist(), views):
                out = key.reshape(shape)[with_t].transpose(axes)
                summed = np.add(bkey.reshape(shape)[rest].transpose(axes), a, order="C")
                np.minimum(out, summed, out=out, order="C")
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
    array of costs (INF when unreachable) or of peeled submasks. Levels 0
    and 1 are None. A full table is indexed by mask, and every entry is
    exact. Otherwise level k holds the odd masks, indexed by mask >> 1, and
    level kmax holds only the full mask; only the full mask's cost and the
    back-pointers along its reconstruction path are guaranteed, since
    ``plan`` may pick the bounded schedule."""
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
    peels = plan(win, kmax, cap, full_table)
    if not full_table:
        levels = (_odd_levels(win, kmax, cap, True) if peels is None
                  else _bounded_levels(win, kmax, cap, peels))
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
