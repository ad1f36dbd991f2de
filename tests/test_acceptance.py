"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion PASS lines). Each numbered test pins the exact values and the
runtime budget it must meet; a warm-up fixture fills the DP's cached
submask-pair tables before the timed sections.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from qcpart import (
    PartitionAssignment,
    assignment_cost,
    dp_partition,
    dp_table,
    format_ratio,
    gen_qft,
    oracle_partition,
    parse_circuit,
    qc_to_bigraph,
    trace_execution,
    trace_to_records,
    weight_matrix,
)
from qcpart.references import REPORTED_RATIOS, FOUR_QUBIT_SAMPLE_REPORTED_COST
from conftest import SAMPLE3, SAMPLE4, SAMPLE4H, build_random_circuit

CORPUS_SEED = 20260809


def _passed(num, detail):
    print(f"acceptance criterion {num}: PASS ({detail})")


def wmat(circuit):
    return weight_matrix(qc_to_bigraph(circuit))


@pytest.fixture(scope="module", autouse=True)
def warm_pair_tables():
    # fill the DP's cached pair tables (0..4 low bits) once, so the timed
    # sections measure the work itself
    w = wmat(gen_qft(5))
    dp_partition(w, 2)
    dp_table(w, 2)


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(CORPUS_SEED)
    out = []
    for i in range(200):
        n = int(rng.integers(2, 11))
        gates = int(rng.integers(0, 41))
        out.append(build_random_circuit(rng, n, gates, name=f"rand{i}"))
    return out


def test_criterion_01_bigraph_edges():
    circ = parse_circuit(SAMPLE3, name="sample3")
    t0 = time.perf_counter()
    graph = qc_to_bigraph(circ)
    elapsed = time.perf_counter() - t0
    assert set(graph.edges) == {(0, 0), (0, 2), (1, 0), (1, 2), (2, 1), (2, 2)}
    assert len(graph.edges) == 6
    assert elapsed < 0.001
    _passed(1, f"6 edges, {elapsed * 1000:.3f} ms")


def test_criterion_02_four_qubit_optimum():
    w = wmat(parse_circuit(SAMPLE4, name="sample4"))
    t0 = time.perf_counter()
    result = dp_partition(w, 3)
    elapsed = time.perf_counter() - t0
    assert result.cost == 4
    assert result.assignment.parts == (0b0001, 0b0010, 0b1100)
    assert elapsed < 0.010
    _passed(2, f"cost 4, parts [[1],[2],[3,4]], {elapsed * 1000:.2f} ms")


def test_criterion_03_memo_table_golden_rows():
    table = dp_table(wmat(parse_circuit(SAMPLE4)), 3)
    for mask in range(1, 16):
        assert table.cost_at(mask, 1) == 0
    level2 = {3: 1, 5: 1, 6: 2, 7: 2, 9: 0, 10: 0, 11: 0, 12: 3, 13: 1, 14: 2, 15: 2}
    for mask in range(1, 16):
        assert table.cost_at(mask, 2) == level2.get(mask)
    # full-set entry at level 3: both search paths give 4 (a published 2 for
    # this cell is inconsistent with the level-2 row it must build on)
    assert table.cost_at(15, 3) == 4
    _passed(3, "level-1 and level-2 rows entry-for-entry; level-3 full set = 4")


def test_criterion_04_nine_gate_trace():
    circ = parse_circuit(SAMPLE4H, name="sample4h")
    assignment = PartitionAssignment.from_parts(4, [0b1011, 0b0100])  # {q1,q2,q4} | {q3}
    trace = trace_execution(circ, assignment)
    kinds = ["G" if g else "L" for g in trace.is_global.tolist()]
    assert kinds == ["L", "G", "L", "L", "L", "L", "L", "L", "L"]
    assert trace_to_records(trace)[1]["rendering"] == "CNOT(q3,p1,q1,p0)"
    cut = int(trace.is_global.sum())
    assert cut == 1
    _passed(4, "only the second gate is global")
    print(
        f"  note: this sample was previously reported at cost "
        f"{FOUR_QUBIT_SAMPLE_REPORTED_COST}; the cut-gate count used here is {cut} "
        f"(the reported accounting is unspecified; documented, not asserted)"
    )


def test_criterion_05_oracle_equivalence_sweep(corpus):
    t0 = time.perf_counter()
    checked = 0
    for circ in corpus:
        w = wmat(circ)
        for k in range(1, circ.width + 1):
            assert dp_partition(w, k).cost == oracle_partition(w, k).cost
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _passed(5, f"{len(corpus)} circuits, {checked} (circuit, K) pairs, {elapsed:.1f} s")


def test_criterion_06_complete_graph_closed_form():
    t0 = time.perf_counter()
    for n in range(2, 13):
        w = wmat(gen_qft(n))
        for k in range(1, n + 1):
            expect = n * (n - 1) // 2 - (n - k + 1) * (n - k) // 2
            assert dp_partition(w, k).cost == expect
            if n <= 8:
                assert oracle_partition(w, k).cost == expect
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    _passed(6, f"qft sizes 2..12, every K, {elapsed:.1f} s")


def test_criterion_07_monotonicity_and_consistency(corpus):
    rng = np.random.default_rng(CORPUS_SEED + 1)
    for circ in corpus:
        w = wmat(circ)
        results = [dp_partition(w, k) for k in range(1, circ.width + 1)]
        costs = [r.cost for r in results]
        assert costs == sorted(costs)
        for r in results:
            assert trace_execution(circ, r.assignment).is_global.sum() == r.cost
            assert assignment_cost(r.assignment, w) == r.cost
        # cost depends only on the interaction multiset, not on gate order
        order = rng.permutation(circ.size)
        shuffled = type(circ)(circ.width, [circ.labels[j] for j in order], circ.ends[order],
                              "shuffled")
        k_probe = min(2, circ.width)
        assert dp_partition(wmat(shuffled), k_probe).cost == costs[k_probe - 1]
    _passed(7, f"{len(corpus)} circuits: monotone in K, trace == DP == recount, order-free")


def test_criterion_08_ratio_metric(corpus):
    sample4 = parse_circuit(SAMPLE4, name="sample4")
    r = dp_partition(wmat(sample4), 3)
    assert r.ratio_r == Fraction(1, 2)
    assert format_ratio(r.ratio_r) == "0.50"
    for circ in corpus[:60]:
        w = wmat(circ)
        for k in (1, min(2, circ.width), circ.width):
            r = dp_partition(w, k)
            assert r.ratio_r == Fraction(r.cost, 2 * circ.width)
            assert (r.ratio_r > 1) == (r.cost > 2 * circ.width)
    # published benchmark-family ratios ride along as annotations only: the
    # circuits behind them are not available, so nothing asserts them
    assert ("qft", 3) in REPORTED_RATIOS and ("bwt", 13) in REPORTED_RATIOS
    _passed(8, "R exact as a rational on the corpus; sample4 at K=3 renders 0.50")


def test_criterion_09_scale_smoke():
    circ = build_random_circuit(np.random.default_rng(CORPUS_SEED + 2), 18, 300, name="rand18")
    w = wmat(circ)
    t0 = time.perf_counter()
    result = dp_partition(w, 4)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    assert result.assignment.k == 4
    assert assignment_cost(result.assignment, w) == result.cost
    assert trace_execution(circ, result.assignment).is_global.sum() == result.cost
    _passed(9, f"18 qubits, K=4, cost {result.cost}, {elapsed:.1f} s single-threaded")
