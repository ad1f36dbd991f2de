import csv
import hashlib
import io
import json
import math
import tracemalloc
from json.encoder import encode_basestring_ascii

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcpart import (
    Circuit,
    InfeasiblePartitionError,
    PartitionAssignment,
    QcpartError,
    SizeCapError,
    WeightMatrix,
    assignment_cost,
    dp_partition,
    dp_table,
    format_subset,
    gen_qft,
    oracle_partition,
    parse_circuit,
    qc_to_bigraph,
    subset_of,
    subset_qubits,
    weight_matrix,
)
from qcpart import dpcore, partitioner
from qcpart.partitioner import DpTable, _partition_count, _rgs_rows, check_oracle_width
from conftest import SAMPLE3, SAMPLE4, SAMPLE4H, build_random_circuit, connect
from rgs_reference import rgs_table


def wmat(circuit):
    return weight_matrix(qc_to_bigraph(circuit))


def internal_weight(mask, w):
    qs = subset_qubits(mask)
    return sum(w[qs[a], qs[b]] for a in range(len(qs)) for b in range(a + 1, len(qs)))


# --- subsets -----------------------------------------------------------------

def test_subset_helpers():
    assert subset_of([0, 2, 3]) == 0b1101
    assert subset_qubits(0b1101) == [0, 2, 3]
    assert format_subset(0b1101) == "{4,3,1}"
    assert format_subset(0b1) == "{1}"


# --- connect (the tests' crossing count) and assignment_cost --------------------

def two_way_cost(s, w4):
    return assignment_cost(PartitionAssignment.from_parts(4, [s, 0b1111 ^ s]), w4)


def test_connect_singleton_expansions(w4):
    rest = lambda s: 0b1111 ^ s
    for s, crossing in ((0b0001, 2), (0b0010, 3), (0b0100, 6), (0b1000, 3)):
        assert connect(s, rest(s), w4) == crossing == two_way_cost(s, w4)


def test_connect_pair_expansions(w4):
    for s, crossing in ((0b0011, 3), (0b0101, 6), (0b1001, 5)):
        assert connect(s, 0b1111 ^ s, w4) == crossing == two_way_cost(s, w4)


def test_assignment_cost_sums_part_pairs():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        w = wmat(build_random_circuit(rng, n, int(rng.integers(0, 40))))
        labels = rng.integers(0, 4, size=n)
        a = PartitionAssignment.from_labels(labels)
        pairs = sum(connect(a.parts[i], a.parts[j], w)
                    for i in range(a.k) for j in range(i + 1, a.k))
        assert assignment_cost(a, w) == pairs


def test_connect_empty_and_overlap(w4):
    assert connect(0, 0b1111, w4) == 0
    assert connect(0b0011, 0, w4) == 0
    with pytest.raises(ValueError):
        connect(0b0011, 0b0001, w4)


# --- dp_partition ------------------------------------------------------------

def test_dp_four_qubit_sample_k3(w4):
    r = dp_partition(w4, 3)
    assert r.cost == 4
    assert r.assignment.as_lists() == [[1], [2], [3, 4]]
    assert r.table is None and not r.constrained


def test_dp_trivial_k1(w4):
    r = dp_partition(w4, 1)
    assert r.cost == 0
    assert r.assignment.parts == (0b1111,)


def test_dp_four_qubit_sample_k2_and_k4(w4):
    assert dp_partition(w4, 2).cost == 2
    assert dp_partition(w4, 4).cost == 7
    assert dp_partition(w4, 4).assignment.sizes() == (1, 1, 1, 1)


def test_dp_three_qubit_sample_k2(w3):
    # optimal 2-way split isolates q2: only the single (q2,q3) gate crosses
    r = dp_partition(w3, 2)
    assert r.cost == 1
    assert r.assignment.as_lists() == [[1, 3], [2]]
    assert oracle_partition(w3, 2).cost == 1


def test_dp_nine_gate_sample_k2(w4h):
    r = dp_partition(w4h, 2)
    assert r.cost == 1
    assert r.assignment.as_lists() == [[1, 2, 4], [3]]


def test_dp_qft_closed_form_small():
    for n in range(2, 9):
        w = wmat(gen_qft(n))
        for k in range(1, n + 1):
            expect = n * (n - 1) // 2 - (n - k + 1) * (n - k) // 2
            assert dp_partition(w, k).cost == expect


def test_dp_tie_break_is_deterministic(w4):
    a = dp_partition(w4, 3).assignment
    b = dp_partition(w4, 3).assignment
    assert a == b
    assert a.as_lists() == [[1], [2], [3, 4]]


def test_dp_k_out_of_range(w4):
    with pytest.raises(InfeasiblePartitionError):
        dp_partition(w4, 0)
    with pytest.raises(InfeasiblePartitionError):
        dp_partition(w4, 5)


def test_dp_size_cap():
    w = WeightMatrix(np.zeros((25, 25), dtype=np.int64))
    with pytest.raises(SizeCapError):
        dp_partition(w, 2)
    # forcing lifts the guard; k=1 needs no recursion even at this width
    assert dp_partition(w, 1, force=True).cost == 0


def test_dp_single_qubit():
    w = WeightMatrix(np.zeros((1, 1), dtype=np.int64))
    r = dp_partition(w, 1)
    assert r.cost == 0 and r.assignment.parts == (1,)


def test_dp_cost_matches_direct_recount(w4, w4h):
    for w in (w4, w4h):
        for k in range(1, 5):
            r = dp_partition(w, k)
            assert assignment_cost(r.assignment, w) == r.cost


# --- dp_table ----------------------------------------------------------------

def test_table_level_one_all_zero(w4):
    t = dp_table(w4, 3)
    assert [t.cost_at(m, 1) for m in range(1, 16)] == [0] * 15


def test_table_level_two_golden_row(w4):
    t = dp_table(w4, 3)
    expected = {3: 1, 5: 1, 6: 2, 7: 2, 9: 0, 10: 0, 11: 0, 12: 3, 13: 1, 14: 2, 15: 2}
    for mask in range(1, 16):
        assert t.cost_at(mask, 2) == expected.get(mask)  # singletons -> None


def test_table_level_three_full_set(w4):
    # both search paths agree the full-set optimum at three parts is 4
    t = dp_table(w4, 3)
    assert t.cost_at(15, 3) == 4
    assert oracle_partition(w4, 3).cost == 4


def test_table_unreachable_states(w4):
    t = dp_table(w4, 4)
    for mask in range(1, 16):
        for k in range(1, 5):
            c = t.cost_at(mask, k)
            assert (c is None) == (mask.bit_count() < k)


def test_table_forced_singleton_states(w4, w4h):
    # popcount(mask) == k leaves only the all-singletons split: every internal
    # pair is cut
    for w in (w4, w4h):
        t = dp_table(w, 4)
        for mask in range(1, 16):
            k = mask.bit_count()
            assert t.cost_at(mask, k) == internal_weight(mask, w)


def test_table_choice_backpointers(w4):
    t = dp_table(w4, 3)
    s = t.choice_at(15, 3)
    assert s is not None and 0 < s < 15
    assert t.choice_at(15, 1) is None
    assert t.cost_at(15, 3) == connect(s, 15 ^ s, w4) + t.cost_at(15 ^ s, 2)


def test_table_csv_shape(w4):
    lines = dp_table(w4, 2).csv_string().splitlines()
    assert lines[0] == "index,qubits,k=1,k=2"
    assert lines[1] == "1,{1},0,N.A"
    assert lines[3] == '3,"{2,1}",0,1'
    assert len(lines) == 16


def test_table_payload_reads_every_cell(w4, w4h):
    # payload() reads each level in one tolist(); cost_at reads one cell
    rng = np.random.default_rng(17)
    w8 = wmat(build_random_circuit(rng, 8, 14))
    tables = [dp_table(w4, 4), dp_table(w4h, 2),
              dp_partition(w8, 3, max_part_size=3, keep_table=True).table,
              dp_table(WeightMatrix(np.zeros((1, 1))), 1)]
    for t in tables:
        assert t.payload()["rows"] == [
            [mask, format_subset(mask)] + [t.cost_at(mask, k) for k in range(1, t.k_max + 1)]
            for mask in range(1, 1 << t.n)]


def _rendered_tables(w4) -> list:
    """Small, capped, one-qubit, big-cost and multi-chunk tables."""
    capped = dp_partition(w4, 3, max_part_size=2, keep_table=True).table
    assert None in capped.payload()["rows"][14]  # {4,3,2,1} at k=1 is over the cap
    big = WeightMatrix(np.array([[0, 1 << 56, 0], [1 << 56, 0, 3], [0, 3, 0]]))
    rng = np.random.default_rng(29)
    wide = wmat(build_random_circuit(rng, 13, 40))  # 8191 rows: more than one render chunk
    assert (1 << 13) > partitioner._RENDER_ROWS
    return [dp_table(w4, 3), capped, dp_table(WeightMatrix(np.zeros((1, 1))), 1),
            dp_table(big, 3), dp_partition(wide, 2, max_part_size=9, keep_table=True).table]


def test_table_json_string_matches_json_dumps(w4):
    for t in _rendered_tables(w4):
        assert t.json_string() == json.dumps(t.payload(), indent=2)


def test_table_csv_string_matches_csv_writer(w4):
    for t in _rendered_tables(w4):
        payload = t.payload()
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(payload["header"])
        writer.writerows(["N.A" if c is None else c for c in row] for row in payload["rows"])
        assert t.csv_string() == buf.getvalue()


def _per_row_json(t: DpTable) -> str:
    """The table's JSON from ``payload()``, one formatted string per row:
    the reference for ``json_string``'s bytes and memory peak."""
    payload = t.payload()
    header = json.dumps(payload["header"], indent=2).replace("\n", "\n  ")
    rows = ",\n".join(
        "    [\n      %d,\n      %s,\n      %s\n    ]"
        % (row[0], encode_basestring_ascii(row[1]),
           ",\n      ".join(map(str, row[2:])).replace("None", "null"))
        for row in payload["rows"])
    return '{\n  "header": ' + header + ',\n  "rows": [\n' + rows + "\n  ]\n}"


def test_table_json_string_memory_at_16_qubits():
    # random costs, a third unreachable: many distinct cells and nulls
    rng = np.random.default_rng(16)
    cost = rng.integers(0, 400, 1 << 16)
    cost[rng.random(cost.size) < 0.3] = dpcore.INF
    # level 1 at a cap of 13
    one = np.where(np.bitwise_count(np.arange(1 << 16)) <= 13, 0, dpcore.INF)
    t = DpTable([(one, np.zeros_like(one)), (cost, np.zeros_like(cost))])
    assert (t.n, t.k_max) == (16, 2)
    texts, peaks = [], []
    for render in (t.json_string, lambda: _per_row_json(t)):
        tracemalloc.start()  # counts only what is allocated from here on
        try:
            texts.append(render())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert texts[0] == texts[1]
    assert peaks[0] <= peaks[1], peaks


def test_table_holds_no_level_one_backpointers():
    # level 1 peels nothing, so its back-pointers are one zero broadcast over
    # every mask: a K=2 table holds three arrays of 2^n int64, not four
    n = 14
    w = wmat(build_random_circuit(np.random.default_rng(14), n, 2 * n))
    dp_table(w, 2)  # the cached pair tables are not the table's
    tracemalloc.start()
    try:
        t = dp_table(w, 2)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 3.5 * (1 << n) * 8, held
    assert {t.choice_at(m, 1) for m in range(1, 1 << n)} == {None}


def test_table_bounds_checking(w4):
    t = dp_table(w4, 2)
    with pytest.raises(ValueError):
        t.cost_at(0, 1)
    with pytest.raises(ValueError):
        t.cost_at(16, 1)
    with pytest.raises(ValueError):
        t.cost_at(1, 3)
    for read in (t.cost_at, t.choice_at):
        for mask, k in ((1, 0), (1, 3), (15, -1)):
            with pytest.raises(ValueError, match=r"^k must be in 1\.\.2$"):
                read(mask, k)
        for mask, k in ((0, 1), (16, 2), (-1, 1), (1 << 70, 2)):
            with pytest.raises(ValueError, match="^mask must be a non-empty subset of 4 qubits$"):
                read(mask, k)
        for mask in (1.0, 3.0, "3"):
            with pytest.raises(TypeError):
                read(mask, 2)


def test_table_reads_match_the_level_arrays():
    # every (mask, k) of seeded full tables at 1-12 qubits, K up to n, with
    # and without a part cap; numpy integer masks read as plain ints do
    rng = np.random.default_rng(1212)
    for n in range(1, 13):
        w = wmat(build_random_circuit(rng, n, int(rng.integers(0, 3 * n + 1)))).m
        for kmax in sorted({1, int(rng.integers(1, n + 1)), n}):
            for cap in sorted({n, -(-n // kmax) + int(rng.integers(0, 2))}):
                *_, levels = dpcore.solve(w, kmax, min(cap, n), full_table=True)
                t = DpTable(levels)
                assert (t.n, t.k_max) == (n, kmax)
                masks = range(1, 1 << n)
                fits = [mask.bit_count() <= cap for mask in masks]
                assert [t.cost_at(m, 1) for m in masks] == [0 if f else None for f in fits]
                assert [t.choice_at(m, 1) for m in masks] == [None] * len(fits)
                for k, (cost, choice) in enumerate(levels[1:], start=2):
                    assert [t.cost_at(m, k) for m in masks] == \
                        [c if c < dpcore.INF else None for c in cost.tolist()[1:]]
                    assert [t.choice_at(m, k) for m in masks] == \
                        [s or None for s in choice.tolist()[1:]]
                for mask in rng.integers(1, 1 << n, 8).tolist():
                    for k in range(1, kmax + 1):
                        for m in (np.int64(mask), np.uint16(mask), np.intp(mask)):
                            assert t.cost_at(m, k) == t.cost_at(mask, k)
                            assert t.choice_at(m, k) == t.choice_at(mask, k)
                            assert type(t.cost_at(m, k)) is type(t.cost_at(mask, k))
                # a bool is an int: True reads as mask 1
                assert t.cost_at(True, kmax) == t.cost_at(1, kmax)
                assert t.choice_at(True, kmax) == t.choice_at(1, kmax)


def _seeded_levels():
    """(n, k_max, levels) of seeded full tables, capped and not, and one
    synthetic level set with random costs and back-pointers."""
    rng = np.random.default_rng(2323)
    for n, kmax, capped in ((1, 1, False), (3, 3, False), (5, 2, True), (7, 4, False),
                            (9, 3, True), (10, 5, True)):
        w = wmat(build_random_circuit(rng, n, 3 * n)).m
        cap = -(-n // kmax) if capped else n
        yield n, kmax, dpcore.solve(w, kmax, cap, full_table=True)[2]
    cost = rng.integers(0, 400, 1 << 11)
    cost[rng.random(cost.size) < 0.3] = dpcore.INF
    one = np.where(np.bitwise_count(np.arange(1 << 11)) <= 8, 0, dpcore.INF)
    yield 11, 2, [(one, np.zeros_like(one)), (cost, rng.integers(0, 1 << 11, 1 << 11))]


def test_table_from_levels_alone_pinned():
    # sha256 prefixes of every cost_at/choice_at read, json_string() with and
    # without a pad, and csv_string(), as DpTable(n, k_max, levels) gave them
    # when it was still told n and k_max
    pinned = [
        ("a13d2d5f625002d2", "0284110d0496253a", "892551d7888efaac", "3f3c1b52d9ca18c0"),
        ("ed1dd2c0070df9a4", "47aab7f9b279d818", "debf7f2fe0bb5ae7", "f1b93c19385c333b"),
        ("23c33ee26d69016e", "7fa67804e5d2e5ee", "70e406424c2973fc", "e2ad5920a9aff65a"),
        ("dbf957f23af2e78a", "852e766a5e94d6e5", "7a6342d57cca76b8", "4fa455ccc0aaeda7"),
        ("8c20425cc53c084d", "699187e021772349", "6d8c608a056b8bd6", "56dd0365c82b8853"),
        ("3e1e4dfe920446af", "a018247021ac5ad6", "8ba03d994a0dd0db", "1cd211daa4f1c5ea"),
        ("875423c39c0a2639", "71bc8a425b952437", "c0a9e971347354eb", "f6c9aa8f01b64489"),
    ]
    for (n, kmax, levels), digests in zip(_seeded_levels(), pinned, strict=True):
        t = DpTable(levels)
        assert (t.n, t.k_max) == (n, kmax)
        assert t.payload()["header"] == ["index", "qubits", *(f"k={k}" for k in range(1, kmax + 1))]
        reads = repr([(t.cost_at(m, k), t.choice_at(m, k))
                      for k in range(1, kmax + 1) for m in range(1, 1 << n)])
        texts = (reads, t.json_string(), t.json_string("  "), t.csv_string())
        assert tuple(hashlib.sha256(s.encode()).hexdigest()[:16] for s in texts) == digests, n


# --- capped ------------------------------------------------------------------

def test_capped_balanced_split(w4):
    r = dp_partition(w4, 2, max_part_size=2)
    assert r.cost == 3
    assert r.assignment.as_lists() == [[1, 2], [3, 4]]
    assert r.constrained and r.max_part_size == 2


def test_capped_all_singletons(w4):
    r = dp_partition(w4, 4, max_part_size=1)
    assert r.cost == 7
    assert r.assignment.sizes() == (1, 1, 1, 1)


def test_capped_inactive_equals_unconstrained(w4, w4h):
    for w in (w4, w4h):
        for k in range(1, 5):
            a = dp_partition(w, k, max_part_size=w.n)
            b = dp_partition(w, k)
            assert a.cost == b.cost and a.assignment == b.assignment


def test_capped_infeasible(w4):
    with pytest.raises(InfeasiblePartitionError):
        dp_partition(w4, 2, max_part_size=1)
    with pytest.raises(InfeasiblePartitionError):
        dp_partition(w4, 2, max_part_size=0)


def test_capped_respects_bound_on_randoms():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        w = wmat(build_random_circuit(rng, n, int(rng.integers(0, 25))))
        k = int(rng.integers(1, n + 1))
        cap = int(rng.integers((n + k - 1) // k, n + 1))
        r = dp_partition(w, k, max_part_size=cap)
        assert max(r.assignment.sizes()) <= cap
        assert r.cost == assignment_cost(r.assignment, w)
        # optimal among every k-block partition whose blocks fit the cap
        best = min(assignment_cost(PartitionAssignment.from_labels(row), w)
                   for row in _rgs_rows(n, k).T.tolist()
                   if max(row.count(b) for b in range(k)) <= cap)
        assert r.cost == best


# --- oracle ------------------------------------------------------------------

def test_oracle_examples(w4):
    assert oracle_partition(w4, 3).cost == 4
    assert oracle_partition(w4, 4).cost == 7
    assert oracle_partition(w4, 1).cost == 0


def test_oracle_cap(monkeypatch):
    # the width: above the DP's 24 qubits even a single partition is refused
    for k in (1, 2, 25):
        with pytest.raises(SizeCapError, match=r"25 qubits exceeds the brute-force cap \(24\)"):
            oracle_partition(WeightMatrix(np.zeros((25, 25), dtype=np.int64)), k)
    # the count: every K at 12 qubits, K=2 to 22 qubits and K=3 to 14 are admitted
    for n in range(1, 13):
        for k in range(1, n + 1):
            check_oracle_width(n, k)
    check_oracle_width(22, 2)
    check_oracle_width(14, 3)
    with pytest.raises(SizeCapError, match="4194303 partitions of 23 qubits into 2 parts"):
        check_oracle_width(23, 2)
    with pytest.raises(SizeCapError, match="2375101 partitions of 15 qubits into 3 parts"):
        check_oracle_width(15, 3)
    assert oracle_partition(WeightMatrix(np.zeros((13, 13), dtype=np.int64)), 2).cost == 0
    # a count equal to the budget is admitted, one above it refused
    monkeypatch.setattr(partitioner, "ORACLE_ROW_BUDGET", 7)
    w4z, w5z = (WeightMatrix(np.zeros((n, n), dtype=np.int64)) for n in (4, 5))
    assert oracle_partition(w4z, 2).cost == 0  # S(4, 2) = 7
    with pytest.raises(SizeCapError, match="15 partitions of 5 qubits into 2 parts exceed"
                                           " the brute-force budget of 7"):
        oracle_partition(w5z, 2)


def test_oracle_k_out_of_range(w4):
    with pytest.raises(InfeasiblePartitionError):
        oracle_partition(w4, 5)


def test_rgs_enumeration_counts():
    bell = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}
    stirling_4 = {1: 1, 2: 7, 3: 6, 4: 1}
    for k, count in stirling_4.items():
        assert _rgs_rows(4, k).shape == (4, count)
    for n, b in bell.items():
        assert sum(_rgs_rows(n, k).shape[1] for k in range(1, n + 1)) == b


def test_rgs_rows_are_restricted_growth_strings():
    for k in range(1, 6):
        for row in _rgs_rows(5, k).T:
            seen = 0
            for v in row:
                assert v <= seen
                seen = max(seen, v + 1)
            assert seen == k


def stirling2(n, k):
    """S(n, k) by the explicit sum, independent of the recurrence."""
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1)) // math.factorial(k)


def test_rgs_rows_match_the_bell_table():
    for n in range(1, 11):
        labels, nblocks = rgs_table(n)
        for k in range(1, n + 1):
            rows = _rgs_rows(n, k)
            assert not rows.flags.writeable
            assert np.array_equal(rows.T, labels[nblocks == k])  # same rows, same order
            assert rows.shape[1] == stirling2(n, k)


def test_partition_count_is_stirling():
    for n in range(0, 25):
        for k in range(-1, n + 2):
            assert _partition_count(n, k) == (stirling2(n, k) if 0 <= k <= n else 0)


def test_oracle_picks_the_first_optimal_growth_string():
    rng = np.random.default_rng(71)
    for n in range(1, 9):
        w = wmat(build_random_circuit(rng, n, 3 * n))
        labels, nblocks = rgs_table(n)
        costs = np.array([assignment_cost(PartitionAssignment.from_labels(row), w)
                          for row in labels.tolist()])
        for k in range(1, n + 1):
            sel = np.flatnonzero(nblocks == k)
            best = sel[np.argmin(costs[sel])]
            r = oracle_partition(w, k)
            assert r.cost == costs[best]
            assert r.assignment == PartitionAssignment.from_labels(labels[best].tolist())


# --- cross-checks and properties ----------------------------------------------

def test_dp_equals_oracle_beyond_twelve_qubits():
    # the oracle scores only K-block partitions, so it reaches past 12 qubits
    # at small K; at these widths equal-cost splits may differ, so costs only
    rng = np.random.default_rng(61)
    for n, k in [(n, 2) for n in range(13, 21)] + [(13, 3), (14, 3)]:
        w = wmat(build_random_circuit(rng, n, 8 * n))
        assert oracle_partition(w, k).cost == dp_partition(w, k).cost


def test_dp_equals_oracle_on_randoms():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        w = wmat(build_random_circuit(rng, n, int(rng.integers(0, 30))))
        for k in range(1, n + 1):
            assert dp_partition(w, k).cost == oracle_partition(w, k).cost


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=20),
       st.integers(min_value=0, max_value=2**32 - 1), st.data())
def test_dp_equals_oracle_property(n, n_gates, seed, data):
    w = wmat(build_random_circuit(np.random.default_rng(seed), n, n_gates))
    k = data.draw(st.integers(min_value=1, max_value=n))
    assert dp_partition(w, k).cost == oracle_partition(w, k).cost


def test_ratio_r_is_cost_over_twice_the_width():
    # R of every DP and oracle result, capped or not, at every K of the sample
    # circuits and seeded random ones, comes from the result's own qubit count
    rng = np.random.default_rng(2300)
    circuits = [parse_circuit(text) for text in (SAMPLE3, SAMPLE4, SAMPLE4H)]
    circuits += [build_random_circuit(rng, n, int(rng.integers(0, 4 * n + 1))) for n in (1, 5, 7, 9)]
    for circuit in circuits:
        w = wmat(circuit)
        n = circuit.width
        for k in range(1, n + 1):
            capped = dp_partition(w, k, max_part_size=-(-n // k))
            for r in (dp_partition(w, k), oracle_partition(w, k), capped):
                assert type(r.ratio_r) is Fraction
                assert r.ratio_r == Fraction(r.cost, 2 * r.assignment.n) == Fraction(r.cost, 2 * n)


def test_cost_monotone_in_k():
    rng = np.random.default_rng(21)
    for _ in range(15):
        n = int(rng.integers(2, 9))
        w = wmat(build_random_circuit(rng, n, int(rng.integers(0, 30))))
        costs = [dp_partition(w, k).cost for k in range(1, n + 1)]
        assert costs == sorted(costs)


def test_cost_invariant_under_qubit_relabeling():
    rng = np.random.default_rng(31)
    for _ in range(15):
        n = int(rng.integers(2, 9))
        w = wmat(build_random_circuit(rng, n, int(rng.integers(1, 30))))
        perm = rng.permutation(n)
        wp = WeightMatrix(w.m[np.ix_(perm, perm)])
        for k in (1, 2, min(3, n)):
            assert dp_partition(w, k).cost == dp_partition(wp, k).cost


def test_cost_invariant_under_gate_reorder():
    rng = np.random.default_rng(41)
    for _ in range(15):
        n = int(rng.integers(2, 9))
        c = build_random_circuit(rng, n, int(rng.integers(1, 30)))
        order = rng.permutation(c.size)
        shuffled = Circuit(n, [c.labels[j] for j in order], c.ends[order], "shuffled")
        for k in (1, 2, min(3, n)):
            assert dp_partition(wmat(c), k).cost == dp_partition(wmat(shuffled), k).cost


# --- engine --------------------------------------------------------------------

def test_dp_matches_oracle_and_recount_on_both_mask_schedules():
    rng = np.random.default_rng(51)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        w = wmat(build_random_circuit(rng, n, int(rng.integers(0, 25))))
        for k in range(1, n + 1):
            odd = dp_partition(w, k)  # odd masks below level k, full mask at k
            full = dp_partition(w, k, keep_table=True)  # every mask at every level
            assert odd.cost == oracle_partition(w, k).cost
            assert odd.cost == assignment_cost(odd.assignment, w)
            assert full.cost == odd.cost
            assert full.assignment == odd.assignment  # same tie-breaking


def test_table_choices_are_lowest_optimal_submasks(w4):
    t = dp_table(w4, 4)
    for mask in range(1, 16):
        low = mask & -mask
        for k in range(2, 5):
            value = {}
            for s in range(1, 16):
                if s & mask == s and not s & low and t.cost_at(mask ^ s, k - 1) is not None:
                    value[s] = connect(s, mask ^ s, w4) + t.cost_at(mask ^ s, k - 1)
            if not value:
                assert t.cost_at(mask, k) is None and t.choice_at(mask, k) is None
                continue
            best = min(value.values())
            s = t.choice_at(mask, k)
            assert t.cost_at(mask, k) == best == value[s]  # Bellman-consistent
            assert s == min(c for c, v in value.items() if v == best)


def test_dp_recount_mismatch_raises(w4, monkeypatch):
    real = partitioner.assignment_cost
    monkeypatch.setattr(partitioner, "assignment_cost", lambda a, w: real(a, w) + 1)
    with pytest.raises(QcpartError, match="recounted"):
        dp_partition(w4, 3)


def test_dp_table_checks_its_split(monkeypatch):
    # a full table's split is reconstructed and recounted as a partition's is
    solve = partitioner.dpcore.solve

    def one_too_many(*args, **kwargs):
        cost, peels, levels = solve(*args, **kwargs)
        return cost + 1, peels, levels

    w = weight_matrix(qc_to_bigraph(gen_qft(6)))
    assert dp_table(w, 3).cost_at((1 << 6) - 1, 3) == 9
    monkeypatch.setattr(partitioner.dpcore, "solve", one_too_many)
    with pytest.raises(QcpartError, match="DP cost 10 differs from its assignment's "
                                          "recounted cost 9"):
        dp_table(w, 3)


def test_dp_part_above_the_cap_raises(w4, monkeypatch):
    # a split that peels qubit 2 alone leaves the other three in one part
    monkeypatch.setattr(partitioner.dpcore, "solve",
                        lambda *args, **kwargs: (3, [0b0010], None))
    with pytest.raises(QcpartError, match="above the cap of 2"):
        dp_partition(w4, 2, max_part_size=2)
    assert dp_partition(w4, 2).cost == 3


@pytest.mark.parametrize("split, message", [
    ((dpcore.INF, [0]), "no feasible partition found"),
    ((3, [0]), "no back-pointer for a reachable state"),
])
def test_dp_faulty_split_raises(w4, monkeypatch, split, message):
    monkeypatch.setattr(partitioner.dpcore, "solve", lambda *args, **kwargs: (*split, None))
    with pytest.raises(QcpartError, match=message):
        dp_partition(w4, 2)


# --- assignments ----------------------------------------------------------------

def test_assignment_validation():
    with pytest.raises(InfeasiblePartitionError):
        PartitionAssignment(3, (0b011, 0b010))  # overlap
    with pytest.raises(InfeasiblePartitionError):
        PartitionAssignment(3, (0b011,))  # not covering
    with pytest.raises(InfeasiblePartitionError):
        PartitionAssignment(3, (0b111, 0))  # empty part
    with pytest.raises(InfeasiblePartitionError):
        PartitionAssignment(3, (0b110, 0b001))  # not canonical order


def test_assignment_accessors():
    a = PartitionAssignment.from_parts(4, [0b1100, 0b0001, 0b0010])
    assert a.parts == (0b0001, 0b0010, 0b1100)
    assert a.k == 3
    assert a.part_of(3) == 2
    assert a.part_labels() == [0, 1, 2, 2]
    assert a.sizes() == (1, 1, 2)
    assert a.as_lists() == [[1], [2], [3, 4]]
    assert PartitionAssignment.from_labels([0, 1, 2, 2]) == a
    with pytest.raises(IndexError, match="qubit 4 not covered"):
        a.part_of(4)
