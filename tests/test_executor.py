import json
from fractions import Fraction

import numpy as np
import pytest

from qcpart import (
    GLOBAL,
    LOCAL,
    Circuit,
    PartitionAssignment,
    assignment_cost,
    compute_metrics,
    dp_partition,
    format_ratio,
    gen_qft,
    qc_to_bigraph,
    trace_execution,
    trace_to_json,
    trace_to_records,
    trace_to_text,
    weight_matrix,
)
from conftest import build_random_circuit


def test_nine_gate_sample_trace(circ4h):
    assignment = PartitionAssignment.from_parts(4, [0b1011, 0b0100])  # {q1,q2,q4} | {q3}
    trace = trace_execution(circ4h, assignment)
    assert len(trace) == 9
    kinds = [e.kind for e in trace]
    assert kinds == [LOCAL, GLOBAL] + [LOCAL] * 7
    assert trace[1].rendering == "CNOT(q3,p1,q1,p0)"
    assert trace[0].rendering == "CNOT(q1,q2,p0)"
    assert trace[3].rendering == "H(q4,p0)"
    assert [e.teleports_so_far for e in trace] == [0, 1, 1, 1, 1, 1, 1, 1, 1]
    assert trace[1].parts == (0, 1)


def test_four_qubit_sample_trace_k3(circ4, w4):
    r = dp_partition(w4, 3)
    trace = trace_execution(circ4, r.assignment)
    global_ordinals = [e.gate_ordinal for e in trace if e.is_global]
    assert global_ordinals == [0, 1, 2, 5]
    assert trace[-1].teleports_so_far == 4 == r.cost


def test_single_part_trace_all_local(circ4):
    assignment = PartitionAssignment.from_parts(4, [0b1111])
    trace = trace_execution(circ4, assignment)
    assert all(e.kind == LOCAL for e in trace)
    assert trace[-1].teleports_so_far == 0


def test_trace_width_mismatch(circ4):
    with pytest.raises(ValueError):
        trace_execution(circ4, PartitionAssignment.from_parts(3, [0b111]))


def test_trace_counts_match_cut_weight():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        c = build_random_circuit(rng, n, int(rng.integers(0, 30)))
        w = weight_matrix(qc_to_bigraph(c))
        k = int(rng.integers(1, n + 1))
        r = dp_partition(w, k)
        trace = trace_execution(c, r.assignment)
        assert len(trace) == c.size
        n_global = sum(e.is_global for e in trace)
        assert n_global == r.cost == assignment_cost(r.assignment, w)
        counts = [e.teleports_so_far for e in trace]
        assert counts == sorted(counts)


def test_metrics_exact_rational(circ4, w4):
    r = dp_partition(w4, 3)
    m = compute_metrics(circ4, r)
    assert m.teleportations == 4
    assert m.qubits == 4
    assert m.ratio_r == Fraction(1, 2)
    assert m.per_part_sizes == (1, 1, 2)


def test_metrics_qft16():
    qft = gen_qft(16)
    r = dp_partition(weight_matrix(qc_to_bigraph(qft)), 3)
    m = compute_metrics(qft, r)
    assert m.teleportations == 29  # C(16,2) - C(14,2)
    assert m.ratio_r == Fraction(29, 32)
    assert format_ratio(m.ratio_r) == "0.91"


def test_ratio_threshold_meaning():
    # R > 1 exactly when teleportations exceed twice the qubit count
    for cost, qubits in [(0, 4), (8, 4), (9, 4), (7, 4)]:
        r = Fraction(cost, 2 * qubits)
        assert (r > 1) == (cost > 2 * qubits)


def test_format_ratio():
    assert format_ratio(Fraction(0)) == "0.00"
    assert format_ratio(Fraction(4, 8)) == "0.50"
    assert format_ratio(Fraction(29, 32)) == "0.91"
    assert format_ratio(Fraction(1, 8)) == "0.12"  # ties to even
    assert format_ratio(Fraction(3, 8)) == "0.38"
    assert format_ratio(Fraction(3, 2)) == "1.50"
    assert format_ratio(Fraction(7, 3)) == "2.33"


def test_trace_text_table(circ4h):
    assignment = PartitionAssignment.from_parts(4, [0b1011, 0b0100])
    text = trace_to_text(trace_execution(circ4h, assignment))
    lines = text.splitlines()
    assert lines[0].split() == ["#", "of", "Gate", "Gate_name", "Type"]
    assert lines[1].startswith("g1")
    assert lines[2].endswith("G")
    assert len(lines) == 10


def test_trace_records(circ4h):
    assignment = PartitionAssignment.from_parts(4, [0b1011, 0b0100])
    records = trace_to_records(trace_execution(circ4h, assignment))
    assert records[1] == {
        "gate": 2,
        "rendering": "CNOT(q3,p1,q1,p0)",
        "kind": "global",
        "parts": [0, 1],
        "teleports_so_far": 1,
    }


# labels json.dumps must escape: quote, backslash, non-ASCII (one outside the
# BMP, so a surrogate pair), control characters and U+2028
ODD_LABELS = ["cnot", 'a"b', "back\\slash", "\u00e9", "\u03c8", "\U0001f642", "\x00\x1f\x7f",
              "tab\tnew\nline\r", "\u2028", "\u00df"]


def test_trace_to_json_matches_json_dumps():
    rng = np.random.default_rng(61)
    empty = trace_execution(Circuit(width=2), PartitionAssignment.from_parts(2, [0b11]))
    assert trace_to_json(empty) == json.dumps(trace_to_records(empty), indent=2) == "[]"
    for _ in range(30):
        n = int(rng.integers(1, 8))
        c = build_random_circuit(rng, n, int(rng.integers(0, 40)))
        c = Circuit(n, [str(rng.choice(ODD_LABELS)) for _ in c.labels], c.ends)
        w = weight_matrix(qc_to_bigraph(c))
        for k in range(1, min(n, 3) + 1):
            trace = trace_execution(c, dp_partition(w, k).assignment)
            assert trace_to_json(trace) == json.dumps(trace_to_records(trace), indent=2)
