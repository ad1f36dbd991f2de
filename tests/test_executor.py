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
from conftest import ODD_LABELS, build_random_circuit
from parse_reference import reference_trace


def test_nine_gate_sample_trace(circ4h):
    assignment = PartitionAssignment.from_parts(4, [0b1011, 0b0100])  # {q1,q2,q4} | {q3}
    trace = trace_execution(circ4h, assignment)
    records = trace_to_records(trace)
    assert len(records) == 9
    gates, renderings, kinds, parts, teleports = zip(*(r.values() for r in records))
    assert gates == tuple(range(1, 10))
    assert kinds == (LOCAL, GLOBAL) + (LOCAL,) * 7
    assert trace.is_global.tolist() == [kind == GLOBAL for kind in kinds]
    assert renderings[1] == "CNOT(q3,p1,q1,p0)"
    assert renderings[0] == "CNOT(q1,q2,p0)"
    assert renderings[3] == "H(q4,p0)"
    assert teleports == (0, 1, 1, 1, 1, 1, 1, 1, 1)
    assert parts[1] == [0, 1]
    assert trace.parts[1].tolist() == [1, 0]  # control's part, then target's


def test_four_qubit_sample_trace_k3(circ4, w4):
    r = dp_partition(w4, 3)
    trace = trace_execution(circ4, r.assignment)
    assert np.flatnonzero(trace.is_global).tolist() == [0, 1, 2, 5]
    assert trace_to_records(trace)[-1]["teleports_so_far"] == 4 == r.cost


def test_single_part_trace_all_local(circ4):
    assignment = PartitionAssignment.from_parts(4, [0b1111])
    records = trace_to_records(trace_execution(circ4, assignment))
    assert all(r["kind"] == LOCAL for r in records)
    assert records[-1]["teleports_so_far"] == 0


def test_trace_shares_circuit_and_yields_plain_values(circ4h):
    trace = trace_execution(circ4h, PartitionAssignment.from_parts(4, [0b1011, 0b0100]))
    assert trace.circuit is circ4h
    assert trace.parts.dtype == np.int64 and not trace.parts.flags.writeable
    with pytest.raises(ValueError):
        trace.parts[0, 0] = 1
    records = trace_to_records(trace)
    for gate, rendering, kind, parts, teleports in (r.values() for r in records):
        assert type(gate) is int and type(teleports) is int
        assert type(rendering) is str and type(kind) is str
        assert type(parts) is list and all(type(p) is int for p in parts)
    # gates 1 and 8 render alike, but each record owns its parts list
    assert records[0]["parts"] == records[7]["parts"]
    assert records[0]["parts"] is not records[7]["parts"]


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
        assert trace.parts.shape == (c.size, 2)
        assert int(trace.is_global.sum()) == r.cost == assignment_cost(r.assignment, w)
        counts = [r["teleports_so_far"] for r in trace_to_records(trace)]
        assert counts == sorted(counts)


def test_metrics_exact_rational(circ4, w4):
    r = dp_partition(w4, 3)
    assert r.cost == 4
    assert r.assignment.n == circ4.width == 4
    assert r.ratio_r == Fraction(1, 2)
    assert r.assignment.sizes() == (1, 1, 2)


def test_metrics_qft16():
    qft = gen_qft(16)
    r = dp_partition(weight_matrix(qc_to_bigraph(qft)), 3)
    assert r.cost == 29  # C(16,2) - C(14,2)
    assert r.ratio_r == Fraction(29, 32)
    assert format_ratio(r.ratio_r) == "0.91"


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


def render_cases():
    """(circuit, assignment) pairs for the trace renderers: the empty circuit,
    random circuits with ODD_LABELS (one label on both single- and two-qubit
    gates), many gates on a few keys, every gate its own label, K up to 4."""
    rng = np.random.default_rng(61)
    yield Circuit(width=2), PartitionAssignment.from_parts(2, [0b11])
    circuits = []
    for _ in range(30):
        n = int(rng.integers(1, 8))
        c = build_random_circuit(rng, n, int(rng.integers(0, 40)))
        circuits.append(Circuit(n, [str(rng.choice(ODD_LABELS)) for _ in c.labels], c.ends))
    c = build_random_circuit(rng, 3, 300)  # 300 gates, at most 6 two-qubit and 3 one-qubit keys
    circuits.append(Circuit(3, ["\u00df" if q < 0 else "h" for q in c.ends[:, 0]], c.ends))
    c = build_random_circuit(rng, 6, 50)
    circuits.append(Circuit(6, [f"g{i}" for i in range(c.size)], c.ends))
    for c in circuits:
        w = weight_matrix(qc_to_bigraph(c))
        for k in range(1, min(c.width, 4) + 1):
            yield c, dp_partition(w, k).assignment
            yield c, PartitionAssignment.from_labels(rng.permutation(c.width) % k)


def test_trace_to_json_matches_json_dumps():
    for c, assignment in render_cases():
        trace = trace_execution(c, assignment)
        expected = json.dumps(trace_to_records(trace), indent=2)
        assert trace_to_json(trace) == expected
        if not c.size:
            assert expected == "[]"


def test_trace_rows_match_reference():
    for c, assignment in render_cases():
        assert trace_to_records(trace_execution(c, assignment)) == reference_trace(c, assignment)


def test_trace_renders_distinct_gates_once(circ4h):
    assignment = PartitionAssignment.from_parts(4, [0b1011, 0b0100])
    code, keys = trace_execution(circ4h, assignment)._distinct()
    # gates 1 and 8 are both CNOT 1 2 inside p0: one key, rendered once
    assert len(keys) == 8 and code[0] == code[7]
    assert keys[code[0]] == ("CNOT(q1,q2,p0)", LOCAL, (0,))


def _row_text(trace) -> str:
    """``trace_to_text`` as one padded row per gate, the reference renderer."""
    rows = [("# of Gate", "Gate_name", "Type")] + [
        (f"g{r['gate']}", r["rendering"], "G" if r["kind"] == GLOBAL else "L")
        for r in trace_to_records(trace)]
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "".join("  ".join(map(str.ljust, r, widths)).rstrip() + "\n" for r in rows)


def test_trace_to_text_matches_row_renderer():
    for c, assignment in render_cases():
        trace = trace_execution(c, assignment)
        assert trace_to_text(trace) == _row_text(trace)
