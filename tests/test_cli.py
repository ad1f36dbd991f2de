import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qcpart import (Circuit, PartitionAssignment, dp_table, parse_circuit, qc_to_bigraph,
                    render_circuit, subset_of, trace_execution, trace_to_records, weight_matrix)
from qcpart import cli, references
from qcpart.cli import _int_ranges, _split_gen_spec, main
from conftest import ODD_LABELS, SAMPLE3, SAMPLE4, SAMPLE4H, build_random_circuit


@pytest.fixture
def sample4(tmp_path):
    p = tmp_path / "sample4.qc"
    p.write_text(SAMPLE4)
    return str(p)


@pytest.fixture
def sample3(tmp_path):
    p = tmp_path / "sample3.qc"
    p.write_text(SAMPLE3)
    return str(p)


@pytest.fixture
def sample4h(tmp_path):
    p = tmp_path / "sample4h.qc"
    p.write_text(SAMPLE4H)
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- argument helpers ----------------------------------------------------------

def _values(spec):
    return [i for r in _int_ranges(spec) for i in r]


def test_parse_int_list():
    assert _values("3") == [3]
    assert _values("3,5") == [3, 5]
    assert _values("1..4") == [1, 2, 3, 4]
    assert _values("1,3..5,9") == [1, 3, 4, 5, 9]
    with pytest.raises(ValueError):
        _int_ranges("4..2")
    with pytest.raises(ValueError):
        _int_ranges("a")


def test_parse_gen_spec():
    assert _split_gen_spec("qft:4") == ("qft", "4") and _values("4") == [4]
    assert _split_gen_spec("qft:4..6") == ("qft", "4..6") and _values("4..6") == [4, 5, 6]
    with pytest.raises(ValueError):
        _split_gen_spec("qft")
    with pytest.raises(ValueError):
        _split_gen_spec("nope:4")


@pytest.mark.parametrize("argv, message", [
    (["partition", "--gen", "qft:4", "--parts", "1..1000000000000000"], "single K"),
    (["oracle", "--gen", "qft:4", "--parts", "2,1..1000000000000000"], "single K"),
    (["oracle", "--gen", "qft:1..1000000000000000", "--parts", "2"], "single generator size"),
    (["partition", "--gen", "qft:3,4", "--parts", "2"], "single generator size"),
])
def test_single_value_spec_refused_unexpanded(capsys, argv, message):
    # a one-value command counts a spec's values from its ranges' bounds, so
    # a 10^15-wide range is refused at once, not after expanding it
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == "" and message in err


def test_single_value_spec_accepts_a_one_value_range(capsys):
    code, out, _ = run_cli(capsys, "partition", "--gen", "qft:4..4", "--parts", "3..3",
                           "--format", "csv", "--no-timing")
    assert code == 0
    assert out == run_cli(capsys, "partition", "--gen", "qft:4", "--parts", "3",
                          "--format", "csv", "--no-timing")[1]


# --- partition -----------------------------------------------------------------

def test_partition_json(capsys, sample4):
    code, out, _ = run_cli(capsys, "partition", "--circuit", sample4, "--parts", "3",
                           "--format", "json", "--no-timing")
    assert code == 0
    data = json.loads(out)
    assert data["cost"] == 4
    assert data["assignment"] == [[1], [2], [3, 4]]
    assert data["ratio_r"] == "0.50"
    assert data["width"] == 4 and data["gate_count"] == 7
    assert "wall_time_ms" not in data


def test_partition_text_k1(capsys, sample4):
    code, out, _ = run_cli(capsys, "partition", "--circuit", sample4, "--parts", "1")
    assert code == 0
    assert "teleportations: 0" in out
    assert "p0: q1 q2 q3 q4" in out
    assert "wall time:" in out


def test_partition_table_csv(capsys, sample4):
    code, out, _ = run_cli(capsys, "partition", "--circuit", sample4, "--parts", "3",
                           "--table", "--no-timing")
    assert code == 0
    lines = out.splitlines()
    start = lines.index("index,qubits,k=1,k=2,k=3")
    table = {row.split(",")[0]: row for row in lines[start + 1:]}
    # level-2 column, by subset index
    expected = {"3": "1", "5": "1", "6": "2", "7": "2", "9": "0", "10": "0",
                "11": "0", "12": "3", "13": "1", "14": "2", "15": "2"}
    for idx, val in expected.items():
        assert table[idx].split(",")[-2] == val
    assert table["15"].split(",")[-1] == "4"  # level-3 optimum of the full set
    assert table["1"].endswith("0,N.A,N.A")


def test_partition_trace_json(capsys, sample4h):
    code, out, _ = run_cli(capsys, "partition", "--circuit", sample4h, "--parts", "2",
                           "--format", "json", "--no-timing", "--trace")
    data = json.loads(out)
    assert code == 0 and data["cost"] == 1
    kinds = [r["kind"] for r in data["trace"]]
    assert kinds.count("global") == 1 and kinds[1] == "global"
    assert data["trace"][1]["rendering"] == "CNOT(q3,p1,q1,p0)"


def test_partition_gen_input_with_reference(capsys):
    code, out, _ = run_cli(capsys, "partition", "--gen", "qft:16", "--parts", "3",
                           "--format", "json", "--no-timing")
    data = json.loads(out)
    assert code == 0
    assert data["cost"] == 29
    assert data["ratio_r"] == "0.91"
    assert data["references"]["ratio"]["reported_r"] == 0.4
    assert data["references"]["ratio"]["k"] == 3


def test_partition_max_part_size(capsys, sample4):
    code, out, _ = run_cli(capsys, "partition", "--circuit", sample4, "--parts", "2",
                           "--max-part-size", "2", "--format", "json", "--no-timing")
    data = json.loads(out)
    assert code == 0
    assert data["cost"] == 3
    assert data["assignment"] == [[1, 2], [3, 4]]
    assert data["flags"]["constrained"] is True
    assert any("capped" in n for n in data["notes"])


def test_partition_dot_export(capsys, sample3, tmp_path):
    dot = tmp_path / "graph.dot"
    code, _, err = run_cli(capsys, "partition", "--circuit", sample3, "--parts", "2",
                           "--dot", str(dot))
    assert code == 0
    assert "wrote bipartite graph" in err
    content = dot.read_text()
    assert "g1 -- q1;" in content


def test_partition_dot_escapes_a_quoted_file_name(capsys, tmp_path):
    circuit = tmp_path / 'a"b.qc'
    circuit.write_text(SAMPLE3)
    dot = tmp_path / "graph.dot"
    code, _, _ = run_cli(capsys, "partition", "--circuit", str(circuit), "--parts", "2",
                         "--dot", str(dot))
    assert code == 0
    assert dot.read_text().startswith('graph "a\\"b" {\n')


def test_partition_csv_format_warns_on_trace(capsys, sample4):
    for command, flag in [("partition", "--trace"), ("oracle", "--compare-dp")]:
        code, out, err = run_cli(capsys, command, "--circuit", sample4, "--parts", "2",
                                 "--format", "csv", "--no-timing", flag)
        assert code == 0
        lines = out.splitlines()
        assert lines == ["name,width,gates,k,cost,ratio_r,wall_time_ms", "sample4,4,7,2,2,0.25,"]
        assert f"ignoring {flag}" in err


def test_csv_skips_the_trace_table_and_cross_check(capsys, monkeypatch):
    requested, real_dp = [], cli.dp_partition

    def spy(w, k, **kw):
        requested.append(kw)
        return real_dp(w, k, **kw)

    monkeypatch.setattr(cli, "dp_partition", spy)
    monkeypatch.setattr(cli, "trace_execution", lambda *a: pytest.fail("trace built for csv"))
    header = "name,width,gates,k,cost,ratio_r,wall_time_ms\n"
    for argv, out, note in [
        (["partition", "--gen", "qft:12", "--parts", "3", "--table", "--trace"],
         "qft12,12,78,3,21,0.88,\n", "no trace/table section; ignoring --trace/--table"),
        (["partition", "--gen", "qft:12", "--parts", "3", "--table"],
         "qft12,12,78,3,21,0.88,\n", "no trace/table section; ignoring --trace/--table"),
        (["oracle", "--gen", "qft:6", "--parts", "3", "--compare-dp"],
         "qft6,6,21,3,9,0.75,\n", "no dp cross-check columns; ignoring --compare-dp"),
    ]:
        requested.clear()
        code, got_out, got_err = run_cli(capsys, *argv, "--format", "csv", "--no-timing")
        assert (code, got_out, got_err) == (0, header + out, f"csv format has {note}\n")
        assert not any(kw.get("keep_table") for kw in requested)
        assert len(requested) == (argv[0] == "partition")


def test_partition_deterministic_output(capsys, sample4):
    _, out1, _ = run_cli(capsys, "partition", "--circuit", sample4, "--parts", "3",
                         "--format", "json", "--no-timing", "--table", "--trace")
    _, out2, _ = run_cli(capsys, "partition", "--circuit", sample4, "--parts", "3",
                         "--format", "json", "--no-timing", "--table", "--trace")
    assert out1 == out2


def test_report_json_round_trip(capsys, sample4):
    _, out, _ = run_cli(capsys, "partition", "--circuit", sample4, "--parts", "3",
                        "--format", "json", "--no-timing", "--trace", "--table")
    assert json.dumps(json.loads(out), indent=2) == out.rstrip("\n")
    data = json.loads(out)
    circ = parse_circuit(SAMPLE4, name="sample4")
    w = weight_matrix(qc_to_bigraph(circ))
    assignment = PartitionAssignment.from_parts(
        circ.width, [subset_of(q - 1 for q in part) for part in data["assignment"]])
    assert data["trace"] == trace_to_records(trace_execution(circ, assignment))
    assert data["dp_table"] == dp_table(w, 3).payload()


def test_report_json_matches_json_dumps(tmp_path, monkeypatch):
    reports = []
    monkeypatch.setattr(cli, "emit_report", lambda report, args: reports.append(report))
    rng = np.random.default_rng(15)
    for i in range(12):
        n = int(rng.integers(2, 8))
        c = build_random_circuit(rng, n, int(rng.integers(0, 60)))
        path = tmp_path / f"odd{i}.qc"
        path.write_text(render_circuit(Circuit(n, [str(rng.choice(ODD_LABELS)) for _ in c.labels],
                                               c.ends)), encoding="utf-8")
        k = int(rng.integers(1, min(n, 4) + 1))
        cap = ["--max-part-size", str(n - k + 1)] if i % 2 else []
        assert main(["partition", "--circuit", str(path), "--parts", str(k), "--trace",
                     "--table", "--format", "json", *cap]) == 0
    assert len(reports) == 12
    for report in reports:
        fields = {name: trace_to_records(value) if name == "trace"
                  else value.payload() if name == "dp_table" else value
                  for name, value in vars(report).items() if value is not None}
        assert {"trace", "dp_table", "wall_time_ms"} <= fields.keys()
        assert report.to_json() == json.dumps(fields, indent=2)


def test_reported_cost_needs_the_stored_width(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # flip_flop is stored as 8 qubits at K=3 with cost 8
    Path("flip_flop.qc").write_text("qubits 8\n" + "".join(
        f"cnot {q} {q + 1}\n" for q in range(1, 8)))
    _, out, _ = run_cli(capsys, "partition", "--circuit", "flip_flop.qc", "--parts", "3",
                        "--format", "json", "--no-timing")
    assert json.loads(out)["references"]["cost"]["reported_cost"] == 8
    Path("flip_flop.qc").write_text("qubits 4\ncnot 1 2\ncnot 2 3\ncnot 3 4\n")
    _, out, _ = run_cli(capsys, "partition", "--circuit", "flip_flop.qc", "--parts", "3",
                        "--format", "text", "--no-timing")
    assert "reported reference" not in out


def test_text_report_notes_and_references(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("flip_flop.qc").write_text("qubits 8\n" + "".join(
        f"cnot {q} {q + 1}\n" for q in range(1, 8)))
    code, out, _ = run_cli(capsys, "partition", "--circuit", "flip_flop.qc", "--parts", "3",
                           "--max-part-size", "3", "--no-timing")
    assert code == 0
    lines = out.splitlines()
    assert "note: part sizes capped at 3; optimum is relative to that constraint" in lines
    assert ("reported reference: cost=8 at K=3 (computed here: 2) -- previously reported; "
            "reference circuit files unavailable, informational only") in lines
    # a name that does not start with a letter has no family to look up
    assert references.family_of("9qft") is None
    assert references.reported_ratio("9qft", 3) is None
    assert references.reported_ratio("qft9", 3) == (0.40, 1.00)


def test_report_bytes_pinned(capsys, tmp_path, monkeypatch):
    (tmp_path / "sample4h.qc").write_text(SAMPLE4H)
    # a label json.dumps must escape: non-ASCII, quote, backslash
    (tmp_path / "labels.qc").write_text('qubits 3\ncnot 1 2\n\u00e9"\\x 2 3\nh\u00e9\\t 3\n',
                                        encoding="utf-8")
    (tmp_path / "crlf.qc").write_bytes(
        b"# comment line\r\nqubits 4\r\n\r\nfoo 1 3  # inline\r\nh 2\r\nbar 4\r\ncnot 3 4\r\n"
        b"   # indented comment\r\nzz 2 1\r\nrx 3\r\ncnot 1 2\r\nmeasure 4\r\n")
    monkeypatch.chdir(tmp_path)
    base = ["partition", "--circuit", "sample4h.qc", "--trace", "--table", "--no-timing"]
    cases = [
        (base + ["--parts", "2"],
         "086a1d5b0454ddb713409aaf2965191180dcd351f2a083b09988ed7d18804a55"),
        (base + ["--parts", "2", "--format", "json"],
         "0a515269e30ebe7643f6632be7d82175eb193ec2ecb85d467ae87bd68836a314"),
        (base + ["--parts", "3", "--max-part-size", "2", "--format", "json"],
         "806f97494248d5d1ae790a861ce7b9f547a066cad65d1cc75d535083e0b74ead"),
        (["oracle", "--circuit", "sample4h.qc", "--parts", "2", "--compare-dp",
          "--format", "json", "--no-timing"],
         "0df266079044c64613bf27d4a4ef0f529cce14fe063f5c2379c63c5d8939aaf8"),
        # carries the float "references" of qft at K=3
        (["partition", "--gen", "qft:5", "--parts", "3", "--format", "json", "--trace",
          "--no-timing"],
         "90dcefa864dd4b1bd224fc2a688aa41111ce50027343ca54ac2131fb15fdb439"),
        # a text trace at K=3: global gates between every pair of parts
        (["partition", "--gen", "qft:5", "--parts", "3", "--trace", "--no-timing"],
         "756c31c86de46f0f123c23a4077c47e9ac552565e171d8523df8b3be470de703"),
        (["partition", "--circuit", "labels.qc", "--parts", "2", "--format", "json", "--trace",
          "--table", "--no-timing"],
         "dfccedc00ca49892f741ebb190be721e679d5c2b8d22d867fd927c0c129f7fc2"),
        # CRLF line ends, comments, blank lines, unknown labels, single-qubit gates
        (["partition", "--circuit", "crlf.qc", "--parts", "2", "--trace", "--no-timing"],
         "b5f1856a17f8ec075f3c57abc97d7caed6ab6767494dee0214f4cbf9b9b39e3f"),
        (["partition", "--circuit", "crlf.qc", "--parts", "2", "--trace", "--format", "json",
          "--no-timing"],
         "8a0ac8ae177087effd6174be9c267071c82bda311be2f79fe4ded2581cd29758"),
    ]
    for argv, digest in cases:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_main_reuses_parser_without_leaking_state(capsys, sample4):
    runs = [
        ["partition", "--circuit", sample4, "--parts", "2", "--trace", "--table", "--no-timing"],
        ["partition", "--circuit", sample4, "--parts", "2", "--no-timing"],
        ["partition", "--circuit", sample4, "--parts", "3", "--format", "json", "--no-timing"],
        ["oracle", "--circuit", sample4, "--parts", "2", "--compare-dp", "--no-timing"],
        ["partition", "--circuit", sample4, "--parts", "2", "--no-timing"],
    ]
    fresh = []
    for argv in runs:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit):  # an argparse error between runs leaves nothing behind
        main(["partition", "--circuit", sample4, "--parts", "2", "--no-such-flag"])
    capsys.readouterr()
    assert [run_cli(capsys, *argv) for argv in runs] == fresh
    assert "Gate_name" in fresh[0][1] and "Gate_name" not in fresh[1][1]


# --- exit codes -----------------------------------------------------------------

def test_partition_threads_flag_output_identical(capsys, sample4):
    for fmt in ("text", "json", "csv"):
        argv = ["partition", "--circuit", sample4, "--parts", "3", "--format", fmt, "--no-timing"]
        assert run_cli(capsys, *argv, "--threads", "1") == run_cli(capsys, *argv)


def test_partition_rejects_two_inputs(capsys, sample4):
    code, _, err = run_cli(capsys, "partition", "--circuit", sample4, "--gen", "qft:4",
                           "--parts", "2")
    assert code == 2
    assert "not both" in err


@pytest.mark.parametrize("argv, message", [
    (["partition", "--gen", "qft:4", "--parts", "2,,3"], "empty entry in list '2,,3'"),
    (["partition", "--parts", "2"], cli.NO_INPUT),
    (["oracle", "--parts", "2"], cli.NO_INPUT),
    (["partition", "--gen", "qft:4", "--parts", "3.."],
     "bad entry '3..' in list '3..'; expected N or N..M"),
    (["bench", "--gen", "qft:4", "--parts", "1..2..3"],
     "bad entry '1..2..3' in list '1..2..3'; expected N or N..M"),
    (["bench", "--gen", "qft:4..x", "--parts", "2"],
     "bad entry '4..x' in list '4..x'; expected N or N..M"),
])
def test_bad_inputs_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_exit_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.qc"
    bad.write_text("cnot 1 2\n")
    code, _, err = run_cli(capsys, "partition", "--circuit", str(bad), "--parts", "2")
    assert code == 1
    assert "header" in err


def test_non_utf8_file_is_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.qc"
    bad.write_bytes(b"qubits 2\r\nh 1\n# \xc3\xa9\ncnot 1 \xff2\n")
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, "partition", "--circuit", str(bad), "--parts", "2",
                                 "--format", fmt)
        assert (code, out) == (1, "")
        assert err == "error: line 4: byte 0xff is not valid UTF-8 (invalid start byte)\n"


def test_file_with_a_byte_order_mark_parses(capsys, tmp_path):
    plain, marked = tmp_path / "plain" / "c.qc", tmp_path / "marked" / "c.qc"
    for path, prefix in ((plain, b""), (marked, b"\xef\xbb\xbf")):
        path.parent.mkdir()
        path.write_bytes(prefix + SAMPLE4.encode())
    reports = [run_cli(capsys, "partition", "--circuit", str(path), "--parts", "2",
                       "--format", "json", "--no-timing") for path in (plain, marked)]
    assert reports[0][0] == 0 and reports[0][2] == reports[1][2] == ""
    assert reports[1][1] == reports[0][1].replace("plain", "marked")  # the path in flags


def test_exit_infeasible(capsys, sample4):
    code, _, _ = run_cli(capsys, "partition", "--circuit", sample4, "--parts", "5")
    assert code == 2
    code, _, _ = run_cli(capsys, "partition", "--circuit", sample4, "--parts", "0")
    assert code == 2
    code, _, _ = run_cli(capsys, "partition", "--circuit", "/nonexistent.qc", "--parts", "2")
    assert code == 2


def test_exit_size_cap(capsys, tmp_path):
    wide = tmp_path / "wide.qc"
    wide.write_text("qubits 25\n")
    code, _, err = run_cli(capsys, "partition", "--circuit", str(wide), "--parts", "2")
    assert code == 3
    assert "--force" in err
    # --force lifts the guardrail; K=1 is cheap at any width
    code, out, _ = run_cli(capsys, "partition", "--circuit", str(wide), "--parts", "1",
                           "--force", "--format", "json", "--no-timing")
    assert code == 0
    assert json.loads(out)["cost"] == 0


def test_width_checked_before_allocation(capsys, tmp_path):
    huge = tmp_path / "huge.qc"
    huge.write_text("qubits 30000\ncnot 1 2\n")
    code, _, err = run_cli(capsys, "partition", "--circuit", str(huge), "--parts", "2")
    assert code == 3
    assert "30000 qubits exceeds the exact-partitioner cap (24)" in err
    code, _, err = run_cli(capsys, "oracle", "--circuit", str(huge), "--parts", "2")
    assert code == 3
    assert "30000 qubits exceeds the brute-force cap (24)" in err
    t0 = time.perf_counter()
    code, _, err = run_cli(capsys, "partition", "--gen", "qft:100000", "--parts", "2")
    assert code == 3 and "exceeds the exact-partitioner cap" in err
    code, out, _ = run_cli(capsys, "bench", "--gen", "qft:100000", "--circuit", str(huge),
                           "--parts", "2", "--no-timing")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 2 and all("exceeds the exact-partitioner cap" in r for r in rows)
    assert time.perf_counter() - t0 < 5  # the qft gates were never generated


def test_memory_error_exits_size_cap(capsys, sample4, monkeypatch):
    def no_memory(graph):
        raise MemoryError("Unable to allocate 6.71 GiB")
    monkeypatch.setattr(cli, "weight_matrix", no_memory)
    code, _, err = run_cli(capsys, "partition", "--circuit", sample4, "--parts", "2")
    assert code == 3
    assert "out of memory (Unable to allocate 6.71 GiB)" in err


def test_threads_validated_and_reported(capsys, sample4, tmp_path):
    # the DP runs on one thread: argparse refuses any other --threads, and
    # bench has no such option, before the circuit is read
    missing = str(tmp_path / "missing.qc")
    for command, bad, message in (*(("partition", bad, f"invalid choice: {bad}")
                                    for bad in ("0", "-5", "2", "4")),
                                  ("bench", "1", "unrecognized arguments: --threads 1")):
        with pytest.raises(SystemExit) as exc:
            main([command, "--circuit", missing, "--parts", "2", "--threads", bad])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert message in err
    code, out, err = run_cli(capsys, "partition", "--circuit", sample4, "--parts", "2",
                             "--format", "json", "--threads", "1")
    assert code == 0 and err == ""
    assert json.loads(out)["flags"]["threads"] == 1


# --- oracle ---------------------------------------------------------------------

def test_oracle_costs(capsys, sample4):
    for parts, cost in [("3", 4), ("4", 7)]:
        code, out, _ = run_cli(capsys, "oracle", "--circuit", sample4, "--parts", parts,
                               "--format", "json", "--no-timing")
        assert code == 0
        assert json.loads(out)["cost"] == cost


def test_oracle_three_qubit_sample(capsys, sample3):
    code, out, _ = run_cli(capsys, "oracle", "--circuit", sample3, "--parts", "2",
                           "--format", "json", "--no-timing")
    assert code == 0
    assert json.loads(out)["cost"] == 1


def test_oracle_compare_dp(capsys, sample4):
    code, out, _ = run_cli(capsys, "oracle", "--circuit", sample4, "--parts", "3",
                           "--format", "json", "--no-timing", "--compare-dp")
    data = json.loads(out)
    assert code == 0
    assert data["dp_cost"] == 4 and data["dp_match"] is True


def test_oracle_cap_exit(capsys, tmp_path):
    # the guard counts the partitions into K parts: 15 qubits fit at K=2, not at K=3
    wide = tmp_path / "wide.qc"
    wide.write_text("qubits 15\ncnot 1 2\n")
    code, out, _ = run_cli(capsys, "oracle", "--circuit", str(wide), "--parts", "2",
                           "--format", "json", "--no-timing")
    assert code == 0 and json.loads(out)["cost"] == 0
    code, out, err = run_cli(capsys, "oracle", "--circuit", str(wide), "--parts", "3")
    assert code == 3 and out == ""
    assert "2375101 partitions of 15 qubits into 3 parts exceed the brute-force budget" in err


def test_oracle_width_checked_against_oracle_cap(capsys, tmp_path):
    q25 = tmp_path / "q25.qc"
    q25.write_text("qubits 25\ncnot 1 2\n")
    for parts in ("1", "2", "26"):
        for extra in ([], ["--compare-dp"]):
            code, _, err = run_cli(capsys, "oracle", "--circuit", str(q25), "--parts", parts,
                                   *extra)
            assert code == 3 and "25 qubits exceeds the brute-force cap (24)" in err
    # within the width, the oracle's own K check refuses before enumerating
    q20 = tmp_path / "q20.qc"
    q20.write_text("qubits 20\ncnot 1 2\n")
    code, _, err = run_cli(capsys, "oracle", "--circuit", str(q20), "--parts", "21")
    assert code == 2 and "cannot split 20 qubit(s) into 21" in err
    # K is read before the circuit, and the guard runs before a --gen circuit is made
    code, _, err = run_cli(capsys, "oracle", "--circuit", str(tmp_path / "missing.qc"),
                           "--parts", "2,3")
    assert code == 2 and "single K" in err
    t0 = time.perf_counter()
    code, _, err = run_cli(capsys, "oracle", "--gen", "qft:100000", "--parts", "2")
    assert code == 3 and "100000 qubits exceeds the brute-force cap (24)" in err
    code, _, err = run_cli(capsys, "oracle", "--gen", "qft:23", "--parts", "2")
    assert code == 3 and "4194303 partitions of 23 qubits into 2 parts" in err
    assert time.perf_counter() - t0 < 5  # the qft gates were never generated


# --- bench ----------------------------------------------------------------------

def test_bench_k_sweep(capsys, sample4):
    code, out, _ = run_cli(capsys, "bench", "--circuit", sample4, "--parts", "1..4",
                           "--no-timing")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,width,gates,k,cost,ratio_r,wall_time_ms,error"
    costs = [int(line.split(",")[4]) for line in lines[1:]]
    assert costs == [0, 2, 4, 7]
    assert costs == sorted(costs)


def test_bench_generator_grid(capsys):
    code, out, _ = run_cli(capsys, "bench", "--gen", "qft:4..8", "--parts", "3,5",
                           "--no-timing")
    assert code == 0
    lines = out.splitlines()[1:]
    assert len(lines) == 10
    errors = 0
    for line in lines:
        name, width, _, k, cost, ratio, _, err = line.split(",")
        n, kk = int(width), int(k)
        if err:
            # the only infeasible cell in the grid: 5 parts from 4 qubits
            assert (n, kk) == (4, 5)
            errors += 1
            continue
        c = int(cost)
        assert c == n * (n - 1) // 2 - (n - kk + 1) * (n - kk) // 2
    assert errors == 1


def test_bench_records_row_errors_and_continues(capsys, sample4):
    code, out, _ = run_cli(capsys, "bench", "--circuit", sample4, "--circuit",
                           "/nonexistent.qc", "--parts", "2,9", "--no-timing")
    assert code == 0
    lines = out.splitlines()[1:]
    assert len(lines) == 4
    ok_row = lines[0].split(",")
    assert ok_row[4] == "2" and ok_row[-1] == ""
    assert "cannot split" in lines[1]  # k=9 on a 4-qubit circuit
    assert lines[2].split(",")[0] == "/nonexistent.qc" and lines[2].split(",")[3] == "2"


@pytest.mark.parametrize("spec, message", [
    ("qft:4..x", "bad entry '4..x'"),
    ("nope:4", "unknown generator 'nope'"),
])
def test_bench_checks_every_spec_before_writing(capsys, sample4, spec, message):
    # a bad --gen spec is refused before the header and before sample4's row
    code, out, err = run_cli(capsys, "bench", "--circuit", sample4, "--gen", spec,
                             "--parts", "2", "--no-timing")
    assert code == 2 and out == ""
    assert err.startswith("error: " + message)


def test_bench_never_expands_a_range(capsys, monkeypatch):
    # the twin of test_single_value_spec_refused_unexpanded: a 2-million-value
    # --parts range is iterated, not listed, so the first solve starts with
    # only a few KB allocated
    class FirstSolve(Exception):
        pass

    def stop(graph):
        raise FirstSolve

    monkeypatch.setattr(cli, "weight_matrix", stop)
    tracemalloc.start()
    try:
        with pytest.raises(FirstSolve):
            main(["bench", "--gen", "qft:4", "--parts", "1..2000000", "--no-timing"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 4 * 2**20, peak


def test_bench_writes_one_row_per_run_outside_the_width(capsys, sample4, tmp_path,
                                                         monkeypatch):
    # every K in 1..4 is solved and gets a row; a run of K below 1 or above the
    # width is tried once, for its first value, and a source that failed to
    # load writes one row per range
    calls = []

    def spy(w, k, **kw):
        calls.append(k)
        return solve(w, k, **kw)

    solve = cli.dp_partition
    monkeypatch.setattr(cli, "dp_partition", spy)
    missing = str(tmp_path / "missing.qc")
    code, out, _ = run_cli(capsys, "bench", "--circuit", sample4, "--circuit", missing,
                           "--parts=-2..0,1..1000,7", "--no-timing")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert calls == [-2, 1, 2, 3, 4, 5, 7]
    assert [row[3] for row in rows] == ["-2", "1", "2", "3", "4", "5", "7", "-2", "1", "7"]
    assert [row[4] for row in rows[1:5]] == ["0", "2", "4", "7"]
    assert [row[-1] for row in rows[:7]] == [
        "cannot split 4 qubit(s) into -2 non-empty part(s) (K -2..0)", "", "", "", "",
        "cannot split 4 qubit(s) into 5 non-empty part(s) (K 5..1000)",
        "cannot split 4 qubit(s) into 7 non-empty part(s)",  # one value: no run note
    ]
    gone = f"[Errno 2] No such file or directory: '{missing}'"
    assert [row[-1] for row in rows[7:]] == [gone + " (K -2..0)", gone + " (K 1..1000)", gone]


def test_bench_ends_on_a_huge_k_range(sample4, tmp_path):
    # 10^12 values of K: the child is stopped at the first row past the
    # expected ones, so a sweep of every K fails the test instead of hanging it
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    missing = str(tmp_path / "missing.qc")
    for circuit, rows, last in (
            (sample4, 5, "sample4,4,7,5,,,,cannot split 4 qubit(s) into 5 non-empty part(s)"
                         " (K 5..1000000000000)\n"),
            (missing, 1, f"{missing},,,1,,,,[Errno 2] No such file or directory: '{missing}'"
                         " (K 1..1000000000000)\n")):
        argv = [sys.executable, "-m", "qcpart.cli", "bench", "--circuit", circuit,
                "--parts", "1..1000000000000", "--no-timing"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env) as proc:
            lines = list(itertools.islice(proc.stdout, rows + 2))
            proc.kill()
        assert proc.wait() == 0
        assert len(lines) == rows + 1 and lines[-1] == last


def test_bench_writes_one_row_per_run_of_refused_sizes(capsys):
    # sizes below 1 cannot be generated and sizes above the width guard are
    # refused: each unbroken run is one input, noted with its sizes; --force
    # lifts the guard, so every size is generated on its own
    cap = "qubits exceeds the exact-partitioner cap (24)"
    code, out, _ = run_cli(capsys, "bench", "--gen", "qft:-2..0,2,24..26,30", "--parts", "1,30..40",
                           "--no-timing")
    assert code == 0
    rows = [line.split(",", 7) for line in out.splitlines()[1:]]
    assert [(row[0], row[3]) for row in rows] == [
        ("qft:-2", "1"), ("qft:-2", "30"), ("qft2", "1"), ("qft2", "30"), ("qft24", "1"),
        ("qft24", "30"), ("qft:25", "1"), ("qft:25", "30"), ("qft:30", "1"), ("qft:30", "30")]
    assert rows[0][-1] == "qft size must be >= 1 (qft:-2..0)"
    assert rows[1][-1] == "qft size must be >= 1 (qft:-2..0) (K 30..40)"
    assert rows[3][-1] == "cannot split 2 qubit(s) into 30 non-empty part(s) (K 30..40)"
    assert rows[4][1:5] == ["24", "300", "1", "0"]  # the widest size the guard admits
    assert cap in rows[6][-1] and rows[6][-1].endswith(' (qft:25..26)"')
    assert rows[7][-1].endswith(' (qft:25..26) (K 30..40)"')
    assert cap in rows[8][-1] and rows[8][-1].endswith('instances."')  # one size: no note
    code, out, _ = run_cli(capsys, "bench", "--gen", "qft:25..26", "--parts", "1", "--force",
                           "--no-timing")
    assert code == 0
    assert out.splitlines()[1:] == ["qft25,25,325,1,0,0.00,,", "qft26,26,351,1,0,0.00,,"]


def test_bench_ends_on_a_huge_size_range():
    # 10^12 sizes above the guard: one row, from a child stopped at the
    # first row past it, so a sweep of every size fails instead of hanging
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "qcpart.cli", "bench", "--gen", "qft:25..1000000000000",
            "--parts", "2", "--no-timing"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env) as proc:
        lines = list(itertools.islice(proc.stdout, 3))
        proc.kill()
    assert proc.wait(timeout=60) == 0
    assert len(lines) == 2 and lines[1].startswith("qft:25,,,2,,,,")
    assert lines[1].endswith(' (qft:25..1000000000000)"\n')


def test_bench_no_sources(capsys):
    code, out, err = run_cli(capsys, "bench", "--parts", "1..3")
    assert code == 2
    assert out == ""
    assert "a circuit is required" in err


# --- gen ------------------------------------------------------------------------

def test_gen_stdout(capsys):
    code, out, _ = run_cli(capsys, "gen", "qft", "--qubits", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "qubits 3"
    assert len(lines) == 7  # header + 6 gates


def test_gen_single_qubit(capsys):
    code, out, _ = run_cli(capsys, "gen", "qft", "--qubits", "1")
    assert code == 0
    assert out.splitlines() == ["qubits 1", "h 1"]


def test_gen_output_file(capsys, tmp_path):
    target = tmp_path / "qft4.qc"
    code, out, err = run_cli(capsys, "gen", "qft", "--qubits", "4", "--output", str(target))
    assert code == 0 and out == ""
    assert "wrote" in err
    assert target.read_text().startswith("qubits 4\n")


def test_gen_bad_size(capsys):
    code, _, err = run_cli(capsys, "gen", "qft", "--qubits", "0")
    assert code == 2
    assert "must be >= 1" in err


def test_gen_unknown_generator(capsys):
    code, _, err = run_cli(capsys, "gen", "ghz", "--qubits", "3")
    assert code == 2
    assert "unknown generator" in err


# --- .real ingestion through the CLI ---------------------------------------------

def test_real_import_with_decomposition(capsys, tmp_path):
    real = tmp_path / "toff.real"
    real.write_text(".numvars 3\n.variables a b c\n.begin\nt3 a b c\nt2 a b\n.end\n")
    code, _, err = run_cli(capsys, "partition", "--circuit", str(real), "--parts", "2")
    assert code == 1 and "decompose_mct" in err
    code, out, _ = run_cli(capsys, "partition", "--circuit", str(real), "--parts", "2",
                           "--decompose-mct", "--format", "json", "--no-timing")
    data = json.loads(out)
    assert code == 0
    assert data["flags"]["approx_decomposition"] is True
    assert any("pairwise" in n for n in data["notes"])
    assert data["gate_count"] == 3


def test_real_import_tk_heads(capsys, tmp_path):
    real = tmp_path / "tk.real"
    real.write_text(".numvars 2\n.variables a b\n.begin\nt0\n.end\n", encoding="utf-8")
    for extra in ((), ("--decompose-mct",)):
        code, out, err = run_cli(capsys, "partition", "--circuit", str(real), "--parts", "2",
                                 *extra)
        assert (code, out) == (1, "")
        assert err == "error: line 4: gate 't0' acts on no qubit; tK needs K >= 1\n"
    real.write_text(".numvars 2\n.variables a b\n.begin\nQubits a\n.end\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "partition", "--circuit", str(real), "--parts", "2")
    assert (code, out) == (1, "")
    assert err == "error: line 4: gate label 'Qubits' is reserved for the .qc header\n"
    real.write_text(".numvars 2\n.variables a b\n.begin\nt\u00b2 a\nt2 a b\n.end\n",
                    encoding="utf-8")
    code, out, _ = run_cli(capsys, "partition", "--circuit", str(real), "--parts", "2",
                           "--format", "json", "--no-timing")
    assert code == 0
    assert json.loads(out)["gate_count"] == 2


# --- process-level smoke ----------------------------------------------------------

def test_module_entry_point(sample4):
    # the child imports the same qcpart as this test, installed or not
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "qcpart.cli", "partition", "--circuit", sample4,
         "--parts", "3", "--format", "json", "--no-timing"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["cost"] == 4
    assert proc.stderr == ""
