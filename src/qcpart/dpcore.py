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
dense schedule's path. Parts are unordered, and every state on a path
holds qubit 0, so any order of an optimal split's peels is an optimal
peel sequence. The dense schedule follows the lowest optimal peel at each
level, which yields the lexicographically first optimal sequence. A
sorted sequence is never lexicographically after its other orders, so
that first sequence is ascending: the search's tuple.

When the search gives up, a level schedule runs. The bounded-peel
schedule takes, at levels 2..K-1, the packed-key minimum over T only, one
np.minimum per peel over the strided view of the states that contain it,
and its last level is one gather over T. Skipping the other peels changes
nothing on the reconstruction path: a peel that is optimal at a state on
the path extends to an optimal split, all of whose parts lie in T, so
the path's costs are exact and its lowest optimal peel is the dense
schedule's. Every other entry of a bounded level may sit above its true
optimum (never below it).

``plan`` routes a solve by counted work, never by measured time. The
dense schedule costs 3^(n-1) pair-ops per level. The bounded one updates
the sum over t in T of 2^(n-1-|t|) states per level, each charged
PEEL_ELEMENT_COST pair-ops, plus PEEL_CHARGE pair-ops per peel for its
numpy calls. A search cell (one prefix and one later peel) is charged
SEARCH_CELL_COST pair-ops. The search may examine cells worth half the
cheaper level schedule, so a search that gives up costs at most about
half of that schedule again. It gives up, before examining them, once the
cells of the next extension pass that budget, and also once more than
2^(n-1) prefixes of one length survive; it examines cells in chunks of at
most 2^(n-1), so its memory stays within a few arrays of 2^(n-1)
entries. The constants were fitted on a 2-core Xeon VM, where a dense
pair-op takes about 2.5-3 ns, a bounded update about 5 ns, a peel's calls
about 10 us and a search cell about 20-25 ns. Full tables, K = 2 and
solves whose (K-2)*3^(n-1) is below BOUND_FLOOR stay dense without
computing U.

A full table solves every mask. The masks whose lowest qubit is b are the
same problem on qubits b..n-1, so the full table is n runs of the odd-mask
solve, each scattered into per-level arrays indexed by mask. Run time grows
as 3^n. It always runs the dense schedule, so every entry is exact.

A dense solve allocates ``_convolve``'s scratch (2 x 3^10 + 2^10 int64 at
most) once, and every convolution of its levels and suffix runs works in a
slice of it. Fresh arrays of that size per convolution can be mapped and
page-faulted afresh each time: a 14-qubit K=4 full table, solved in a new
process on a 2-core Xeon VM, took 3 800 faults and 53 ms that way against
none and 40 ms. A process-wide buffer would hold the memory after a solve.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby

import numpy as np

from .errors import QcpartError, SizeCapError

INF = 1 << 62  # cost of an unreachable state
_KEY_INF = 1 << 61  # packed key of an unreachable term; two of them fit in int64
_KEY_REACH = 1 << 60  # a packed sum at or above this is unreachable
LOW_BITS = 10
BOUND_FLOOR = 3 ** 11  # fewer pair-ops than this: dense, no bound computed
PEEL_ELEMENT_COST = 2  # dense pair-ops per state a bounded peel updates
PEEL_CHARGE = 4096  # dense pair-ops charged per peel and level
SEARCH_CELL_COST = 8  # dense pair-ops charged per cell the search examines


def _internal_weights(w: np.ndarray) -> np.ndarray:
    """win[m], the total weight of the pairs inside mask m, for all 2^n
    masks: win[m | 1 << i] = win[m] + row[m] for m < 2^i, where row[m] is
    the sum of w[j, i] over j in m. Both fill by doubling, in place."""
    n = w.shape[0]
    win = np.zeros(1 << n, dtype=np.int64)
    row = np.zeros(1 << n >> 1, dtype=np.int64)
    for i in range(1, n):
        for j in range(i):
            np.add(row[:1 << j], w[j, i], out=row[1 << j:2 << j])
        np.add(win[:1 << i], row[:1 << i], out=win[1 << i:2 << i])
    return win


def _popcounts(bits: int) -> np.ndarray:
    pc = np.zeros(1 << bits, dtype=np.int64)
    for b in range(bits):
        np.add(pc[:1 << b], 1, out=pc[1 << b:2 << b])
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


def _scratch(bits: int) -> tuple:
    """``_convolve``'s work arrays for up to ``bits`` bits: 3^L, 3^L and 2^L entries."""
    low = min(bits, LOW_BITS)
    return tuple(np.empty(size, dtype=np.int64) for size in (3 ** low, 3 ** low, 1 << low))


def _convolve(akey: np.ndarray, bkey: np.ndarray, bits: int, scratch: tuple) -> np.ndarray:
    """min over t <= x of akey[t] + bkey[x ^ t], for every x below 2^bits."""
    low = min(bits, LOW_BITS)
    lo = 1 << low
    tl, ul, starts = _pair_table(low)
    out = np.full(1 << bits, _KEY_INF)
    peeled, summed, part = (a[:size] for a, size in zip(scratch, (tl.size, tl.size, lo)))
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


def _odd_levels(win: np.ndarray, kmax: int, cap: int, last_full_only: bool,
                scratch: tuple) -> list:
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
            key = _convolve(akey, bkey, bits, scratch)
        reach = key < _KEY_REACH
        cost = np.where(reach, wodd + (key >> bits), INF)
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

    def cost(labels: np.ndarray) -> int:
        return int(w[labels[:, None] != labels].sum()) // 2

    return cost(_improve(w, min(starts, key=cost), kmax, cap))


def _admissible_peels(win: np.ndarray, kmax: int, cap: int, bound: int) -> tuple:
    """Every peel t (a mask over qubits 1..n-1 of ``win``, shifted down one
    bit) that can be a part of a kmax-split within the cap that costs at
    most ``bound``, in ascending order, and its qubit count: cut(t, V \\ t)
    = win[V] - win[t] - win[V \\ t] at most ``bound`` and 1..min(cap,
    n-kmax+1) qubits."""
    bits = win.size.bit_length() - 2
    peels = np.flatnonzero(win[0::2] + win[-1::-2] >= win[-1] - bound)
    sizes = _popcounts(bits)[peels]
    keep = (sizes >= 1) & (sizes <= min(cap, bits + 2 - kmax))
    return peels[keep], sizes[keep]


def _search(win: np.ndarray, kmax: int, cap: int, peels: np.ndarray, sizes: np.ndarray,
            bound: int, budget: int, most: int) -> list | None:
    """The reconstruction path (see ``solve``) of the cheapest split into
    kmax - 1 of ``peels`` (of ``sizes`` qubits) plus a rest that holds qubit
    0 and fits the cap,
    where ``bound`` is the cost of some such split; on a tie the
    lexicographically first ascending tuple of peels wins. Tuples grow one
    peel at a time, each prefix t1 < .. < tj extended by every later peel
    (a cell). A prefix cuts win[V] - win[V \\ (t1|..|tj)] - sum of win[ti],
    which never drops as peels are added, so a prefix above ``bound`` is
    dropped, and so is one whose rest cannot fit the cap in the parts left.
    Returns None once the cells to examine exceed ``budget`` or the
    surviving prefixes of one length exceed ``most``. Cells are examined in
    chunks of at most 2^(n-1)."""
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
    _, p, j = best
    parts = [int(peels[j]) << 1]
    for pref, last in reversed(steps):
        parts.append(int(peels[last[p]]) << 1)
        p = int(pref[p])
    parts.reverse()
    state = win.size - 1
    inside = int(win[state ^ sum(parts)]) + sum(int(win[t]) for t in parts)
    path = []
    for t in parts:  # a state's cost: its weight less the weight inside its parts
        path.append((int(win[state]) - inside, t))
        state ^= t
        inside -= int(win[t])
    return path


def plan(win: np.ndarray, kmax: int, cap: int, full_table: bool) -> tuple[str, object]:
    """The schedule of a solve, with what it needs, chosen by counted work:
    ("search", path) when ``_search`` finishes within a budget of cells
    worth half the cheaper level schedule's work, else ("bounded", peels)
    when the bounded schedule does less work than the dense one, else
    ("dense", None)."""
    bits = win.size.bit_length() - 2
    dense = (kmax - 2) * 3 ** bits
    if full_table or kmax < 3 or dense < BOUND_FLOOR:
        return "dense", None
    bound = _upper_bound(win, kmax, cap)
    peels, sizes = _admissible_peels(win, kmax, cap, bound)
    updates = int((1 << (bits - sizes)).sum())
    bounded = (kmax - 2) * (PEEL_ELEMENT_COST * updates + PEEL_CHARGE * peels.size)
    path = _search(win, kmax, cap, peels, sizes, bound,
                   min(dense, bounded) // (2 * SEARCH_CELL_COST), 1 << bits)
    if path is not None:
        return "search", path
    return ("bounded", peels) if bounded < dense else ("dense", None)


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


def walk(levels: list, shift: int) -> list:
    """The reconstruction path through level arrays (``(cost, peeled
    submask)`` pairs for levels 2..kmax, mask m at index m >> shift): from
    the full mask at level kmax down to level 2, each state's cost and
    peel, the next state being the state without its peel."""
    mask = (levels[-1][0].size << shift) - 1 if levels else 0
    path = []
    for cost, choice in reversed(levels):
        path.append((cost.item(mask >> shift), choice.item(mask >> shift)))
        mask ^= path[-1][1]
    return path


def solve(w: np.ndarray, kmax: int, cap: int, *, full_table: bool = False) -> list:
    """Run the DP over an n x n weight array. ``cap`` bounds part sizes
    (pass n for unconstrained).

    A partition solve returns its reconstruction path: for each level from
    kmax down to 2, the pair (cost, peel), where the level's state is the
    full mask without the peels above it, cost is that state's optimum (INF
    when unreachable) and peel is its lowest optimal peeled submask (0 when
    unreachable). The rest left after the last peel is the final part. The
    schedule is ``plan``'s.

    With ``full_table`` it returns the levels of every mask instead,
    ``(cost, peeled submask)`` int64 array pairs for levels 2..kmax indexed
    by mask, with every entry exact."""
    if kmax < 2:  # one part: no level to solve, and no 2^n weight array
        return []
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
        return found
    if schedule == "bounded":
        return walk(_bounded_levels(win, kmax, cap, found), 1)
    scratch = _scratch(n - 1)  # shared by every convolution of this solve
    if not full_table:
        return walk(_odd_levels(win, kmax, cap, True, scratch), 1)
    size = 1 << n
    levels = [(np.full(size, INF), np.zeros(size, dtype=np.int64)) for _ in range(2, kmax + 1)]
    for b in range(n):
        sl = slice(1 << b, None, 2 << b)  # masks whose lowest qubit is b
        for (c, s), (cf, sf) in zip(_odd_levels(win[::1 << b], kmax, cap, False, scratch), levels):
            cf[sl] = c
            sf[sl] = s << b
    return levels
