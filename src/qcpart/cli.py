"""Command-line interface: ingestion -> partitioning -> reporting.

Subcommands:
  partition  exact DP split of one circuit into K parts
  oracle     brute-force split (small circuits; cross-checks the DP)
  bench      CSV sweep over circuits and K values
  gen        write a generated circuit as .qc text

Reports go to stdout (text, JSON, or CSV), each rendering the library's trace
and memo-table objects once; diagnostics go to stderr.
Exit codes: 0 success, 1 circuit parse/import error, 2 infeasible or invalid
parameters, 3 size cap exceeded or out of memory.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

from . import references
from .bigraph import bigraph_to_dot, qc_to_bigraph, weight_matrix
from .circuit import GENERATORS, Circuit, import_real, parse_circuit, render_circuit
from .errors import CircuitSyntaxError, LineError, QcpartError, SizeCapError
from .executor import Trace, format_ratio, trace_execution, trace_to_json, trace_to_text
from .partitioner import (
    DEFAULT_DP_CAP,
    DpTable,
    PartitionResult,
    check_oracle_width,
    check_width,
    dp_partition,
    oracle_partition,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INFEASIBLE = 2
EXIT_CAP = 3

NO_INPUT = "a circuit is required: --circuit <path> or --gen <name:size>"


@dataclass
class RunReport:
    """Result of one partition/oracle run; ``trace`` and ``dp_table`` are the
    library's objects, rendered once per format. None fields stay out of the JSON."""

    circuit_name: str
    width: int
    gate_count: int
    k: int
    cost: int
    ratio_r: str
    assignment: list[list[int]]
    flags: dict
    notes: list[str] | None = None
    references: dict | None = None
    trace: Trace | None = None
    dp_table: DpTable | None = None
    wall_time_ms: int | None = None
    dp_cost: int | None = None
    dp_match: bool | None = None

    def to_json(self) -> str:
        """``json.dumps(..., indent=2)`` of the non-None fields, byte for byte; the
        ``Trace`` and ``DpTable`` render through their own indent=2 templates,
        at the depth of a field."""
        pieces = []
        for name, value in vars(self).items():
            if value is None:
                continue
            if name == "trace":
                body = trace_to_json(value, "  ")
            elif name == "dp_table":
                body = value.json_string("  ")
            else:
                # JSON escapes every newline inside a string, so this only indents
                body = json.dumps(value, indent=2).replace("\n", "\n  ")
            pieces += [",\n  ", json.dumps(name), ": ", body]
        pieces[0] = "{\n  "  # circuit_name is never None
        pieces.append("\n}")
        return "".join(pieces)  # one copy of the trace and the table


def _int_ranges(spec: str) -> list[range]:
    """The checked ranges of a list spec such as '1,3..5', none expanded."""
    ranges = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty entry in list {spec!r}")
        lo_s, dots, hi_s = chunk.partition("..")
        try:
            lo = int(lo_s)
            hi = int(hi_s) if dots else lo
        except ValueError:
            raise ValueError(f"bad entry {chunk!r} in list {spec!r}; expected N or N..M") from None
        if hi < lo:
            raise ValueError(f"descending range {chunk!r}")
        ranges.append(range(lo, hi + 1))
    return ranges


def _single_int(spec: str, message: str) -> int:
    """The one value of a list spec, else ValueError(message). Values are
    counted from the ranges' bounds, so a wide range is never expanded."""
    ranges = _int_ranges(spec)
    if sum(r.stop - r.start for r in ranges) != 1:
        raise ValueError(message)
    return ranges[0].start


def _split_gen_spec(spec: str) -> tuple[str, str]:
    """The generator name and the size list spec of ``name:sizes``."""
    name, sep, sizes = spec.partition(":")
    if not sep or not sizes:
        raise ValueError(f"generator spec must look like qft:4 or qft:4..8, got {spec!r}")
    _check_generator(name)
    return name, sizes


def _check_generator(name: str) -> None:
    if name not in GENERATORS:
        raise ValueError(f"unknown generator {name!r}; available: {', '.join(sorted(GENERATORS))}")


def load_circuit(path: str, decompose_mct: bool) -> Circuit:
    """Read a ``.qc`` or ``.real`` file as UTF-8, with or without a BOM; a
    byte that is not UTF-8 is a syntax error on its line."""
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.object is the bytes after any BOM
        before = exc.object[:exc.start].decode("utf-8")
        line = len((before + "x").splitlines())  # the lines before the byte's, plus its own
        raise CircuitSyntaxError(f"byte 0x{exc.object[exc.start]:02x} is not valid UTF-8"
                                 f" ({exc.reason})", line) from None
    name = Path(path).stem
    if path.lower().endswith(".real"):
        return import_real(text, decompose_mct=decompose_mct, name=name)
    return parse_circuit(text, name=name)


def _checked_circuit(source, args, check_width_of) -> Circuit:
    """Load the file at path ``source`` or generate ``(generator, size)``, passing
    the width to ``check_width_of(width)`` before gates are generated or
    anything is sized by the width."""
    if isinstance(source, str):
        circuit = load_circuit(source, args.decompose_mct)
        check_width_of(circuit.width)
        return circuit
    name, size = source
    check_width_of(size)
    return GENERATORS[name](size)


def _single_circuit(args, check_width_of) -> Circuit:
    if args.circuit and args.gen:
        raise ValueError("give either --circuit or --gen, not both")
    if args.circuit:
        return _checked_circuit(args.circuit, args, check_width_of)
    if args.gen:
        name, sizes = _split_gen_spec(args.gen)
        size = _single_int(sizes, "this command takes a single generator size, e.g. qft:4")
        return _checked_circuit((name, size), args, check_width_of)
    raise ValueError(NO_INPUT)


def _elapsed_ms(args, t0: float) -> int | None:
    """Whole milliseconds since ``t0``; None under --no-timing, which the JSON
    report omits and a CSV row writes as an empty cell."""
    return None if args.no_timing else int(round((time.perf_counter() - t0) * 1000))


def _single_k(args) -> int:
    return _single_int(args.parts, "this command takes a single K; use bench for sweeps")


def _collect_notes(circuit: Circuit, result: PartitionResult) -> list[str]:
    notes = []
    if circuit.decomposed_mct:
        notes.append(
            "multi-control gates were decomposed into pairwise CNOTs; "
            "interaction-preserving approximation, not a unitary equivalence"
        )
    if result.constrained:
        notes.append(f"part sizes capped at {result.max_part_size}; "
                     f"optimum is relative to that constraint")
    return notes


def _collect_references(circuit: Circuit, result: PartitionResult) -> dict | None:
    refs: dict = {}
    k = result.assignment.k
    ratio = references.reported_ratio(circuit.name, k)
    if ratio is not None:
        refs["ratio"] = {
            "family": references.family_of(circuit.name),
            "k": k,
            "reported_r": ratio[0],
            "reported_comparison_r": ratio[1],
            "note": "previously reported; reference circuit files unavailable, informational only",
        }
    reported = references.reported_cost(circuit.name, k, circuit.width)
    if reported is not None:
        refs["cost"] = {
            "k": k,
            "reported_cost": reported,
            "computed_cost": result.cost,
            "note": "previously reported; reference circuit files unavailable, informational only",
        }
    return refs or None


def emit_text(report: RunReport) -> str:
    lines = [
        f"circuit: {report.circuit_name} ({report.width} qubits, {report.gate_count} gates)",
        f"method: {report.flags.get('command', 'partition')}",
        f"parts (K): {report.k}",
        f"teleportations: {report.cost}",
        f"ratio R: {report.ratio_r}",
        "assignment:",
    ]
    for idx, qubits in enumerate(report.assignment):
        lines.append(f"  p{idx}: " + " ".join(f"q{q}" for q in qubits))
    if report.dp_cost is not None:
        verdict = "match" if report.dp_match else "MISMATCH"
        lines.append(f"dp cross-check: {verdict} (dp cost {report.dp_cost})")
    if report.wall_time_ms is not None:
        lines.append(f"wall time: {report.wall_time_ms} ms")
    for note in report.notes or []:
        lines.append(f"note: {note}")
    refs = report.references or {}
    if "ratio" in refs:
        r = refs["ratio"]
        lines.append(
            f"reported reference: R={r['reported_r']:.2f} "
            f"(comparison method {r['reported_comparison_r']:.2f}) for "
            f"{r['family']} at K={r['k']} -- {r['note']}"
        )
    if "cost" in refs:
        r = refs["cost"]
        lines.append(
            f"reported reference: cost={r['reported_cost']} at K={r['k']} "
            f"(computed here: {r['computed_cost']}) -- {r['note']}"
        )
    out = "\n".join(lines) + "\n"
    if report.trace is not None:
        out += "\n" + trace_to_text(report.trace)
    if report.dp_table is not None:
        out += "\n" + report.dp_table.csv_string()
    return out


def emit_report(report: RunReport, args) -> None:
    """Print the report in ``args.format``; CSV notes the flags it has no columns for."""
    if args.format == "json":
        print(report.to_json())
    elif args.format == "csv":
        if getattr(args, "trace", False) or getattr(args, "table", False):
            print("csv format has no trace/table section; ignoring --trace/--table", file=sys.stderr)
        if getattr(args, "compare_dp", False):
            print("csv format has no dp cross-check columns; ignoring --compare-dp", file=sys.stderr)
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["name", "width", "gates", "k", "cost", "ratio_r", "wall_time_ms"])
        writer.writerow([report.circuit_name, report.width, report.gate_count, report.k,
                         report.cost, report.ratio_r, report.wall_time_ms])
    else:
        sys.stdout.write(emit_text(report))


def _build_report(circuit, result, command, args, wall_ms) -> RunReport:
    flags = {
        "command": command,
        "circuit": args.circuit or args.gen,
        "parts": result.assignment.k,
        "max_part_size": result.max_part_size,
        "format": args.format,
        "decompose_mct": args.decompose_mct,
        "approx_decomposition": circuit.decomposed_mct,
        "constrained": result.constrained,
        "threads": 1,  # the DP runs on one thread
        "force": getattr(args, "force", False),
    }
    return RunReport(
        circuit_name=circuit.name,
        width=circuit.width,
        gate_count=circuit.size,
        k=result.assignment.k,
        cost=result.cost,
        ratio_r=format_ratio(result.ratio_r),
        assignment=result.assignment.as_lists(),
        flags=flags,
        notes=_collect_notes(circuit, result) or None,
        references=_collect_references(circuit, result),
        wall_time_ms=wall_ms,
    )


def cmd_partition(args) -> int:
    circuit = _single_circuit(args, functools.partial(check_width, force=args.force))
    k = _single_k(args)
    full = args.format != "csv"  # a CSV row drops the trace and the table
    t0 = time.perf_counter()
    graph = qc_to_bigraph(circuit)
    w = weight_matrix(graph)
    result = dp_partition(w, k, max_part_size=args.max_part_size,
                          keep_table=args.table and full, force=args.force)
    wall_ms = _elapsed_ms(args, t0)
    if args.dot:
        Path(args.dot).write_text(bigraph_to_dot(graph, circuit.name), encoding="utf-8")
        print(f"wrote bipartite graph to {args.dot}", file=sys.stderr)
    report = _build_report(circuit, result, "partition", args, wall_ms)
    if args.trace and full:
        report.trace = trace_execution(circuit, result.assignment)
    report.dp_table = result.table
    emit_report(report, args)
    return EXIT_OK


def cmd_oracle(args) -> int:
    k = _single_k(args)
    # the oracle's guard holds the DP's width cap too, so --compare-dp needs no other
    circuit = _single_circuit(args, functools.partial(check_oracle_width, k=k))
    t0 = time.perf_counter()
    w = weight_matrix(qc_to_bigraph(circuit))
    result = oracle_partition(w, k)
    wall_ms = _elapsed_ms(args, t0)
    report = _build_report(circuit, result, "oracle", args, wall_ms)
    if args.compare_dp and args.format != "csv":
        dp_result = dp_partition(w, k)
        report.dp_cost = dp_result.cost
        report.dp_match = dp_result.cost == result.cost
    emit_report(report, args)
    return EXIT_OK


def _bench_sources(args):
    """Each input, as a path or a ``(generator, size)`` pair, and the note of
    the sizes it stands for: a run of sizes that the width guard refuses or
    that cannot be generated is one input. Every --gen spec is checked here,
    before the first input is read; no range is expanded."""
    gens = [(name, _int_ranges(sizes)) for name, sizes in map(_split_gen_spec, args.gen or [])]
    sized = (((name, run.start), _span(run, f"{name}:")) for name, ranges in gens
             for run in _runs(ranges, max(r.stop for r in ranges) if args.force else DEFAULT_DP_CAP))
    return chain(((path, "") for path in args.circuit or []), sized)


def _runs(ranges: list[range], width: int):
    """The runs that bench writes one row each for: every value of ``ranges``
    in 1..width on its own, and each unbroken run of a range below 1 or
    above width whole, so that a wide range is never swept."""
    for r in ranges:
        inside = range(max(r.start, 1), min(r.stop, width + 1))
        below, above = range(r.start, min(r.stop, 1)), range(max(r.start, width + 1), r.stop)
        yield from filter(None, [below, *(range(k, k + 1) for k in inside), above])


def _span(run: range, what: str = "K ") -> str:
    """An error row's note of the values it stands for, when they are several."""
    return f" ({what}{run.start}..{run.stop - 1})" if run.stop - run.start > 1 else ""


def cmd_bench(args) -> int:
    if not args.circuit and not args.gen:
        raise ValueError(NO_INPUT)
    ks = _int_ranges(args.parts)
    sources = _bench_sources(args)  # a bad spec is refused before the header is written
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["name", "width", "gates", "k", "cost", "ratio_r", "wall_time_ms", "error"])
    for source, note in sources:
        try:
            circuit = _checked_circuit(source, args, functools.partial(check_width, force=args.force))
        except (QcpartError, OSError, ValueError) as exc:
            label = source if isinstance(source, str) else "%s:%d" % source
            for run in ks:
                writer.writerow([label, "", "", run.start, "", "", "", f"{exc}{note}{_span(run)}"])
            continue
        w = weight_matrix(qc_to_bigraph(circuit))
        head = [circuit.name, circuit.width, circuit.size]
        for run in _runs(ks, circuit.width):
            t0 = time.perf_counter()
            try:  # a run of several K lies outside 1..width, so its first K fails
                result = dp_partition(w, run.start, max_part_size=args.max_part_size,
                                      force=args.force)
            except QcpartError as exc:
                writer.writerow([*head, run.start, "", "", "", f"{exc}{_span(run)}"])
                continue
            wall = _elapsed_ms(args, t0)
            writer.writerow([*head, run.start, result.cost, format_ratio(result.ratio_r), wall, ""])
    return EXIT_OK


def cmd_gen(args) -> int:
    _check_generator(args.generator)
    circuit = GENERATORS[args.generator](args.qubits)
    text = render_circuit(circuit)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {circuit.name} to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _add_io_args(p: argparse.ArgumentParser, single: bool) -> None:
    if single:
        p.add_argument("--circuit", help="path to a .qc or .real circuit file")
        p.add_argument("--gen", help="generate the input instead, e.g. qft:4")
        p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    else:
        p.add_argument("--circuit", action="append", help="circuit file; repeatable")
        p.add_argument("--gen", action="append", help="generator spec, e.g. qft:4..8; repeatable")
    p.add_argument("--parts", required=True, help="number of parts K (bench accepts lists/ranges)")
    p.add_argument("--decompose-mct", action="store_true",
                   help="decompose multi-control gates in .real files into pairwise CNOTs")
    p.add_argument("--no-timing", action="store_true",
                   help="omit wall-clock fields for byte-stable output")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qcpart",
        description="Exact minimum-teleportation partitioning of quantum circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="exact DP partitioning")
    _add_io_args(p, single=True)
    p.add_argument("--max-part-size", type=int, help="cap on qubits per part")
    p.add_argument("--table", action="store_true", help="also emit the full memo table as CSV")
    p.add_argument("--trace", action="store_true", help="also emit the per-gate execution trace")
    p.add_argument("--threads", type=int, choices=[1], default=1, help="the DP runs on one thread")
    p.add_argument("--force", action="store_true",
                   help=f"lift the {DEFAULT_DP_CAP}-qubit guardrail (runtime grows as 3^n)")
    p.add_argument("--dot", metavar="PATH", help="write the bipartite graph in DOT format")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("oracle", help="brute-force partitioning (small circuits)")
    _add_io_args(p, single=True)
    p.add_argument("--compare-dp", action="store_true",
                   help="also run the DP and report whether the costs match")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="CSV sweep over circuits and K values")
    _add_io_args(p, single=False)
    p.add_argument("--max-part-size", type=int, help="cap on qubits per part")
    p.add_argument("--force", action="store_true",
                   help=f"lift the {DEFAULT_DP_CAP}-qubit guardrail")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen", help="write a generated circuit as .qc text")
    p.add_argument("generator", help="generator name (qft)")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--output", help="write to this file instead of stdout")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (QcpartError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except MemoryError as exc:
        print(f"error: out of memory ({str(exc) or 'no detail'}); the input is too large",
              file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
