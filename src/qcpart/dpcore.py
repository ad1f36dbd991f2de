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
bits, so a minimum over keys yields both the optimum and the lowest optimal
t. One loop, ``_odd_levels``, computes the levels of every schedule, and one
scan, ``_convolve``, gives a middle level's keys. It splits the n-1 bits
into up to 10 low bits, scanned in one gather over a cached table of the 3^L
disjoint low-bit pairs sorted by union, and the high bits, whose disjoint
pairs a Python loop walks block by block (each peeled block is gathered
once, then paired with every disjoint rest); ``np.minimum.reduceat`` takes
each union's minimum. Given a set of peels, the scan skips the high blocks
that hold none, and every other block scans the table filtered to its low
peels, where a union left without a pair is unreachable. The dense schedule
scans every peel at every level. Only the full mask is needed at the last
level of a partition, and there the loop takes one vector op over the
2^(n-1) submasks and keeps that one entry. A solve returns the split that
the back-pointers give from the full mask down.

A partition solve with K >= 3 first tries a pruned search over admissible
peels. Let U be the cost of any feasible K-split within the cap. Every part
P of an optimal split then has cut(P, V \\ P) <= OPT <= U and at most
min(cap, n-K+1) qubits. U comes from the better of two cheap splits, the
K-1 lowest-degree qubits as singletons (when the rest fits the cap) and a
balanced split in qubit order, improved by single-qubit moves and swaps
that stay within the cap. The cut of every candidate peel t is one vector
op over the even masks, win[-1] - win[0::2] - win[-1::-2] (the second
term is win[t], the third win[V \\ t]), so the admissible peels T are found
before anything else runs.

The search builds ascending tuples of K-1 pairwise-disjoint peels from T,
one peel at a time, and the rest (the part holding qubit 0) is the K-th
part. A prefix t1..tj cuts win[V] - win[V \\ (t1|..|tj)] - sum of win[ti];
adding a peel only splits the rest further, so that cost never drops and
a prefix above U cannot lead to an optimal split. Neither can one whose
rest cannot fit the cap in the parts still to come. The answer is the
cheapest full tuple, the lexicographically first on a tie, and it is the
dense schedule's split. Parts are unordered, and every walked state
holds qubit 0, so any order of an optimal split's peels is an optimal
peel sequence. The dense schedule follows the lowest optimal peel at each
level, which yields the lexicographically first optimal sequence. A
sorted sequence is never lexicographically after its other orders, so
that first sequence is ascending: the search's tuple.

When the search gives up, the bounded schedule runs: the scan over T only.
Skipping the other peels changes nothing at the states the walk visits: a
peel that is optimal at one of them extends to an optimal split, all of
whose parts lie in T, so their costs are exact and their lowest optimal
peels are the dense schedule's. Every other entry of a bounded level may sit
above its true optimum (never below it). The shared last level stays
exact: a peel outside T is above the cap (an unreachable key), leaves
fewer than K-1 qubits (level K-1 cost INF) or cuts more than U >= OPT, so
its key lies strictly above the optimum and can neither win nor tie.

``plan`` routes a solve by counted work, never by measured time, in one
unit: the pair-op, one (peel, rest) pair that the scan sums. A level costs
3^(n-1) pair-ops over every peel, and the sum over t in T of 2^(n-1-|t|)
over T, which is never more. A search cell (one prefix and one later
peel) is charged SEARCH_CELL_COST pair-ops. The search may examine cells
worth half the bounded schedule, so a search that gives up costs at most
about half of that schedule again. It gives up, before examining them, once
the cells of the next extension pass that budget, and also once more than
2^(n-1) prefixes of one length survive; it examines cells in chunks of at
most 2^(n-1), so its memory stays within a few arrays of 2^(n-1) entries.
SEARCH_CELL_COST was fitted on a 2-core Xeon VM, where a pair-op takes about
2.5-3 ns and a search cell about 20-25 ns. Full tables, K = 2 and solves
whose (K-2)*3^(n-1) is below BOUND_FLOOR scan every peel without computing
U.

A full table solves every mask. The masks whose lowest qubit is b are the
same problem on qubits b..n-1, so the full table is n runs of the odd-mask
solve, each scattered into per-level arrays indexed by mask. Run time grows
as 3^n. It always scans every peel, so every entry is exact.

A solve that scans a level (a full table, or K >= 3) allocates
``_convolve``'s scratch (2 x 3^10 + 2^10 int64 at most) once, and every
convolution of its levels and suffix runs works in a slice of it. The
bounded schedule keeps the filtered tables that several blocks share with
it, and builds the others when their block is scanned. A K=2
partition's only level is the full mask's vector op, so it allocates
none. Fresh arrays of that size per convolution can be mapped and
page-faulted afresh each time: a 14-qubit K=4 full table, solved in a new
process on a 2-core Xeon VM, took 3 800 faults and 53 ms that way against
none and 40 ms. A process-wide buffer would hold the memory after a solve.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, partial

import numpy as np

from .errors import QcpartError, SizeCapError

INF = 1 << 62  # cost of an unreachable state
_KEY_INF = 1 << 61  # packed key of an unreachable term; two of them fit in int64
_KEY_REACH = 1 << 60  # a packed sum at or above this is unreachable
LOW_BITS = 10
BOUND_FLOOR = 3 ** 11  # fewer pair-ops than this: every peel, no bound computed
SEARCH_CELL_COST = 8  # pair-ops charged per cell the search examines


def _internal_weights(w: np.ndarray) -> np.ndarray:
    """win[m], the total weight of the pairs inside mask m, for all 2^n
    masks: win[m | 1 << i] = win[m] + row[m] for m < 2^i, where row[m] is
    the sum of w[j, i] over j in m. Row i fills by doubling in place, in the
    still-zero block of win that it ends up in, before win[:2^i] is added."""
    n = w.shape[0]
    win = np.zeros(1 << n, dtype=np.int64)
    for i in range(1, n):
        row = win[1 << i:2 << i]
        for j in range(i):
            np.add(row[:1 << j], w[j, i], out=row[1 << j:2 << j])
        row += win[:1 << i]
    return win


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


def _scratch(bits: int) -> tuple:
    """``_convolve``'s work arrays (3^L, 3^L and 2^L entries) and shared tables."""
    low = min(bits, LOW_BITS)
    return *(np.empty(size, dtype=np.int64) for size in (3 ** low, 3 ** low, 1 << low)), {}


def _low_table(low_peels: np.ndarray, low: int) -> tuple:
    """``_pair_table(low)`` filtered to the pairs whose peeled part is in
    ``low_peels``, as intp, each union's first pair, and the unions left
    with no pair. The union of all low bits keeps its pairs (t, ~t)."""
    tl, ul, starts = _pair_table(low)
    keep = np.flatnonzero(np.isin(tl, low_peels))
    starts = np.searchsorted(keep, starts)
    return tl[keep].astype(np.intp), ul[keep].astype(np.intp), starts, \
        np.flatnonzero(starts[:-1] == starts[1:])


def _blocks(bits: int, peels, shared: dict):
    """Each high block that ``_convolve`` scans, and its pair table: every
    block with the whole table, or with ``peels`` only the blocks that hold
    a peel, each with the table filtered to its low peels. A block whose
    low peels are all the low masks (block 0: all but the empty one, whose
    key is unreachable) takes the whole table. Tables that several blocks
    use are kept in ``shared``; the rest are built when their block is
    scanned."""
    low = min(bits, LOW_BITS)
    whole = (*_pair_table(low), np.empty(0, dtype=np.intp))
    if peels is None:
        yield from ((th, whole) for th in range(1 << (bits - low)))
        return
    highs, firsts = np.unique(peels >> low, return_index=True)
    lows = np.split(peels & ((1 << low) - 1), firsts[1:])
    keys = [t.tobytes() for t in lows]
    uses = Counter(keys)
    for th, t, key in zip(highs.tolist(), lows, keys):
        complete = t.size == (1 << low) - (th == 0)
        table = whole if complete else shared.get(key) or _low_table(t, low)
        if not complete and uses[key] > 1:  # block 0 can share a key with an incomplete set
            shared[key] = table
        yield th, table


def _convolve(akey: np.ndarray, bkey: np.ndarray, scratch: tuple, peels=None) -> np.ndarray:
    """min over t <= x of akey[t] + bkey[x ^ t], for every x below akey.size,
    over every t, or over the ascending non-empty masks ``peels`` only
    (unreachable where none fits). akey[0] is unreachable."""
    bits = akey.size.bit_length() - 1
    low = min(bits, LOW_BITS)
    lo = 1 << low
    high = (1 << (bits - low)) - 1
    out = np.full(1 << bits, _KEY_INF)
    *work, part, shared = scratch
    part = part[:lo]
    for th, (tl, ul, starts, empty) in _blocks(bits, peels, shared):
        peeled, summed = (a[:tl.size] for a in work)
        # indices are in range; mode="raise" would buffer and bounds-check
        np.take(akey[th * lo:(th + 1) * lo], tl, out=peeled, mode="clip")
        uh = free = high ^ th
        while True:  # every uh disjoint from th
            np.take(bkey[uh * lo:(uh + 1) * lo], ul, out=summed, mode="clip")
            summed += peeled
            np.minimum.reduceat(summed, starts, out=part)
            part[empty] = _KEY_INF  # reduceat gave them the next union's first pair
            block = out[(th | uh) * lo:((th | uh) + 1) * lo]
            np.minimum(block, part, out=block)
            if uh == 0:
                break
            uh = (uh - 1) & free
    return out


def _odd_levels(win: np.ndarray, kmax: int, cap: int, last_full_only: bool, scan) -> list:
    """Levels 2..kmax over the masks that hold qubit 0 of ``win``'s qubits,
    indexed by mask >> 1, as (cost, peeled submask) array pairs. ``scan(akey,
    bkey)`` gives a level's packed keys. With ``last_full_only`` the last
    level holds only the full mask, as 1-element arrays from one vector op
    over its submasks."""
    bits = win.size.bit_length() - 2
    size = 1 << bits
    wodd = win[1::2]
    masks = np.arange(size)
    pc = np.bitwise_count(masks)
    akey = np.where((pc >= 1) & (pc <= cap), (-win[0::2] << bits) + masks, _KEY_INF)
    cost = np.where(pc < cap, 0, INF)  # level 1: the mask x plus qubit 0 fits the cap
    levels = []
    for k in range(2, kmax + 1):
        bkey = np.where(cost < INF, (cost - wodd) << bits, _KEY_INF)
        if last_full_only and k == kmax:
            key = (akey + bkey[::-1]).min(keepdims=True)  # the full mask alone
        else:
            key = scan(akey, bkey)
        reach = key < _KEY_REACH
        cost = np.where(reach, wodd[-key.size:] + (key >> bits), INF)
        levels.append((cost, np.where(reach, (key & (size - 1)) << 1, 0)))
    return levels


def _improve(w: np.ndarray, labels: np.ndarray, kmax: int, cap: int) -> np.ndarray:
    """Local search from a feasible split, as a part label per qubit: move
    one qubit to another part, or else swap two qubits of different parts,
    whichever cuts the most weight off (the first such move on a tie), while
    one cuts any off. A move keeps its old part non-empty and its new part
    within the cap; a swap keeps every size."""
    n = labels.size
    while True:
        conn = w @ (labels[:, None] == np.arange(kmax))  # weight from each qubit to each part
        sizes = np.bincount(labels, minlength=kmax)
        gain = conn - conn[np.arange(n), labels][:, None]
        move = np.where((sizes[labels] > 1)[:, None] & (sizes < cap), gain, 0)
        best = int(move.argmax())
        if move.flat[best] > 0:
            labels[best // kmax] = best % kmax
            continue
        swap = gain[:, labels]  # swap q in part a with r in part b:
        swap = swap + swap.T - 2 * w  # gain[q, b] + gain[r, a] - 2 w[q, r]
        best = int(swap.argmax())
        if swap.flat[best] <= 0:  # a pair in one part gains -2 w[q, r] <= 0
            return labels
        q, r = divmod(best, n)
        labels[q], labels[r] = labels[r], labels[q]


def crossing_weight(w: np.ndarray, labels: np.ndarray) -> int:
    """Weight of the qubit pairs that ``labels`` (a part per qubit) splits."""
    return int(w[labels[:, None] != labels].sum()) // 2


def _upper_bound(win: np.ndarray, kmax: int, cap: int) -> int:
    """Cost of a cheap feasible kmax-split within the cap (kmax * cap >= n):
    the better of two splits, the kmax - 1 lowest-degree qubits as
    singletons (when the rest fits the cap) and a balanced split in qubit
    order, improved by ``_improve``."""
    n = win.size.bit_length() - 1
    bit = 1 << np.arange(n)
    w = win[bit[:, None] | bit]  # w[i, j] = win[{i, j}], 0 on the diagonal
    starts = [np.repeat(np.arange(kmax), [len(q) for q in np.array_split(np.arange(n), kmax)])]
    if n - kmax + 1 <= cap:
        starts.append(np.zeros(n, dtype=np.int64))
        starts[-1][np.argsort(w.sum(0), kind="stable")[:kmax - 1]] = np.arange(1, kmax)
    cost = partial(crossing_weight, w)
    return cost(_improve(w, min(starts, key=cost), kmax, cap))


def _admissible_peels(win: np.ndarray, kmax: int, cap: int, bound: int) -> tuple:
    """Every peel t (a mask over qubits 1..n-1 of ``win``, shifted down one
    bit) that can be a part of a kmax-split within the cap that costs at
    most ``bound``, in ascending order, and its qubit count: cut(t, V \\ t)
    = win[V] - win[t] - win[V \\ t] at most ``bound`` and 1..min(cap,
    n-kmax+1) qubits."""
    bits = win.size.bit_length() - 2
    peels = np.flatnonzero(win[0::2] + win[-1::-2] >= win[-1] - bound)
    sizes = np.bitwise_count(peels)
    keep = (sizes >= 1) & (sizes <= min(cap, bits + 2 - kmax))
    return peels[keep], sizes[keep].astype(np.int64)  # a uint8 count wraps in plan's shift


def _search(win: np.ndarray, kmax: int, cap: int, peels: np.ndarray, sizes: np.ndarray,
            bound: int, budget: int, most: int) -> tuple | None:
    """The cost and the peels (as ``solve`` returns them) of the cheapest
    split into kmax - 1 of ``peels`` (of ``sizes`` qubits) plus a rest that
    holds qubit 0 and fits the cap, where ``bound`` is the cost of some such
    split; on a tie the lexicographically first ascending tuple of peels
    wins. Tuples grow one peel at a time, each prefix t1 < .. < tj extended
    by every later peel (a cell). A prefix cuts
    win[V] - win[V \\ (t1|..|tj)] - sum of win[ti], which never drops as
    peels are added, so a prefix above ``bound`` is dropped, and so is one
    whose rest cannot fit the cap in the parts left. ``win`` gives only
    these prefix costs. Returns None once the cells to examine exceed
    ``budget`` or the surviving prefixes of one length exceed ``most``.
    Cells are examined in chunks of at most 2^(n-1)."""
    bits = win.size.bit_length() - 2
    size = 1 << bits
    wodd, weven = win[1::2], win[0::2][peels]
    # prefixes: the index of the last peel, the union of the peels, its qubit
    # count, the sum of their win[ti]; the first extension starts from the
    # one empty prefix
    last = np.full(1, -1)
    union, used, inner = (np.zeros(1, dtype=np.int64) for _ in range(3))
    steps = []  # per extension, for each surviving prefix: (parent prefix, last peel)
    best = None  # (cost, prefix, peel) of the cheapest full tuple
    for depth in range(1, kmax):
        final = depth == kmax - 1
        counts = peels.size - 1 - last
        ends = np.cumsum(counts)
        budget -= int(ends[-1])
        if budget < 0:
            return None
        least = bits + 1 - cap * (kmax - depth)  # qubits to peel so that the rest fits
        kept, later, found = 0, 0, []
        start = 0
        while start < counts.size:  # chunks of at most 2^(n-1) cells
            base = int(ends[start] - counts[start])
            stop = max(int(np.searchsorted(ends, base + size, side="right")), start + 1)
            c = counts[start:stop]
            pref = np.repeat(np.arange(start, stop), c)
            first = ends[start:stop] - c - last[start:stop] - 1  # cell index less peel index
            j = np.arange(base, int(ends[stop - 1])) - np.repeat(first, c)
            t, u = peels[j], union[pref]
            ok = (u & t) == 0
            u |= t
            s = inner[pref] + weven[j]
            cost = win[-1] - wodd[(size - 1) ^ u] - s
            ok &= cost <= bound
            if least > 0:  # else any rest fits
                ok &= used[pref] + sizes[j] >= least
            i = np.flatnonzero(ok)
            if final and i.size:
                i = int(i[np.argmin(cost[i])])
                if best is None or cost[i] < best[0]:
                    best = int(cost[i]), int(pref[i]), int(j[i])
            elif not final:
                kept += i.size
                later += int((peels.size - 1 - j[i]).sum())  # the next extension's cells
                if kept > most or later > budget:
                    return None
                found.append((pref[i], j[i], u[i], used[pref[i]] + sizes[j[i]], s[i]))
            start = stop
        if not final:
            if not kept:
                break
            pref, last, union, used, inner = (np.concatenate(a) for a in zip(*found))
            steps.append((pref, last))
    if best is None:
        raise QcpartError(f"no split within the cost {bound} of a feasible split")
    cost, p, j = best
    split = [int(peels[j]) << 1]
    for pref, last in reversed(steps):
        split.append(int(peels[last[p]]) << 1)
        p = int(pref[p])
    return cost, split[::-1]


def plan(win: np.ndarray, kmax: int, cap: int, full_table: bool) -> tuple[str, object]:
    """The schedule of a solve, with what it needs: ("search", (cost,
    peels)), the split ``_search`` found, when it finishes within a budget
    of cells worth half the scan's counted pair-ops, else ("scan", peels)
    for ``_convolve``: None (every peel) for full tables, K = 2 and solves
    below BOUND_FLOOR, else the admissible peels."""
    bits = win.size.bit_length() - 2
    if full_table or kmax < 3 or (kmax - 2) * 3 ** bits < BOUND_FLOOR:
        return "scan", None
    bound = _upper_bound(win, kmax, cap)
    peels, sizes = _admissible_peels(win, kmax, cap, bound)
    pairs = (kmax - 2) * int((1 << (bits - sizes)).sum())
    split = _search(win, kmax, cap, peels, sizes, bound, pairs // (2 * SEARCH_CELL_COST), 1 << bits)
    return ("search", split) if split is not None else ("scan", peels)


def _walk(levels: list, shift: int) -> tuple:
    """The full mask's optimum and its lowest optimal peels (as ``solve``
    returns them), read from level arrays: ``(cost, peeled submask)`` pairs
    for levels 2..kmax, mask m at index m >> shift, the full mask last.
    Each level's state is the one above without its peel."""
    mask = -1  # the full mask with every higher bit set too: indexes count from the end
    peels = []
    for _, choice in reversed(levels):
        peels.append(choice.item(mask >> shift))
        mask ^= peels[-1]
    return levels[-1][0].item(-1), peels


def _run(w: np.ndarray, kmax: int, cap: int, full_table: bool) -> tuple:
    """``solve`` for kmax >= 2, without level 1. ``win`` and the scratch
    die on return, before ``solve`` allocates level 1."""
    n = w.shape[0]
    total = sum(sum(row[i + 1:]) for i, row in enumerate(w.tolist()))
    # |costs| and |win| <= total, so finite packed sums stay below _KEY_REACH
    # and sums with a _KEY_INF term stay above it
    if (total + 1) << n >= _KEY_REACH:
        raise SizeCapError(
            f"total weight {total} over {n} qubits exceeds the DP's 64-bit key range"
        )
    win = _internal_weights(w)
    schedule, found = plan(win, kmax, cap, full_table)
    if schedule == "search":
        return (*found, None)
    # one scratch per solve; a K=2 partition's only level scans nothing
    scan = partial(_convolve, scratch=_scratch(n - 1), peels=found) \
        if full_table or kmax > 2 else None
    if not full_table:
        return (*_walk(_odd_levels(win, kmax, cap, True, scan), 1), None)
    size = 1 << n
    levels = [(np.full(size, INF), np.zeros(size, dtype=np.int64)) for _ in range(2, kmax + 1)]
    for b in range(n):
        sl = slice(1 << b, None, 2 << b)  # masks whose lowest qubit is b
        for (c, s), (cf, sf) in zip(_odd_levels(win[::1 << b], kmax, cap, False, scan), levels):
            cf[sl] = c
            sf[sl] = s << b
    return (*_walk(levels, 0), levels)


def solve(w: np.ndarray, kmax: int, cap: int, *, full_table: bool = False) -> tuple:
    """Run the DP over an n x n weight array. ``cap`` bounds part sizes
    (pass n for unconstrained). Returns ``(cost, peels, levels)``.

    ``cost`` is the full mask's optimum over kmax parts (INF when no split
    fits the cap). ``peels`` are the kmax - 1 parts of its split peeled
    from level kmax down to 2, each the lowest optimal peeled submask of
    the full mask without the peels before it (0 when unreachable); the
    rest after the last peel is the final part. Both are plain ints.

    ``levels`` is None for a partition solve, whose schedule is ``plan``'s.
    With ``full_table`` it holds levels 1..kmax, every entry exact, as
    ``(cost, peeled submask)`` int64 array pairs indexed by mask; level 1
    costs 0 where the mask fits the cap, else INF, and peels nothing: its
    back-pointers are one read-only zero broadcast over every mask."""
    cost, peels, levels = _run(w, kmax, cap, full_table) if kmax >= 2 else (0, [], [])
    if not full_table:
        return cost, peels, None
    one = np.where(np.bitwise_count(np.arange(1 << w.shape[0])) <= cap, 0, INF)
    return cost, peels, [(one, np.broadcast_to(np.int64(0), one.shape)), *levels]
