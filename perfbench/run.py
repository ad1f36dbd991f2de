"""qcpart benchmark: seeded workloads through the public entry point.

    python3 perfbench/run.py --workload wide|table|deep --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; qcpart is imported from the checkout's
src/. The run writes the workload's inputs, times set-up in fresh
processes, then repeats passes over the workload's jobs in this process
until the next pass would end after S seconds. Each job is one
qcpart.cli.main([...]) call (or, on `table`, one library dp_table read-back)
and its output is checked independently after its timer stops.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes and reports the per-layer metrics, writing the spans to
perfbench/out/. The last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import check
import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

# A fresh process: start the interpreter, import qcpart and run one tiny
# partition (qft:4 into 2 parts costs C(4,2) - C(3,2) = 3).
SETUP_CODE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from qcpart import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(["partition", "--gen", "qft:4", "--parts", "2", "--format", "json"])
sys.exit(code or json.loads(out.getvalue())["cost"] != 3)
"""


def load_qcpart():
    if not (SRC / "qcpart" / "__init__.py").is_file():
        sys.exit(f"error: no qcpart sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import qcpart
    import qcpart.cli

    if Path(qcpart.__file__).resolve().parent != SRC / "qcpart":
        sys.exit(f"error: imported qcpart from {qcpart.__file__}, not from {SRC}")
    return qcpart


def measure_setup() -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"error: set-up process failed:\n{proc.stderr}")
    return statistics.median(times)


def environment(qcpart, jobs) -> dict:
    model = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    dpcore = qcpart.dpcore
    engines = sorted({
        ("numba" if dpcore.HAVE_NUMBA and job.circuit.n <= dpcore.DENSE_LIMIT else "python")
        if hasattr(dpcore, "HAVE_NUMBA") else "unknown"
        for job in jobs
    })
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "engine_auto": engines,
        "threads": int(workloads.THREADS),
    }


class Runner:
    """Runs jobs, times them, checks their outputs and counts failures."""

    def __init__(self, qcpart, jobs, seed: int, tracer: Tracer | None):
        self.qcpart = qcpart
        self.jobs = jobs
        self.tracer = tracer
        self.rng = np.random.default_rng(seed)
        self.labels: list[str] = []  # job label by job id, one per attempt
        self.failed = 0

    def _call(self, job):
        """The timed part of one job: (seconds, output)."""
        qcpart = self.qcpart
        if job.kind == "dp_table":
            t0 = time.perf_counter()
            text = Path(job.path).read_text(encoding="utf-8")
            w = qcpart.weight_matrix(qcpart.qc_to_bigraph(qcpart.parse_circuit(text)))
            table = qcpart.dp_table(w, job.k)
            masks = range(1, 1 << w.n)
            cost = [[table.cost_at(m, k) for m in masks] for k in range(1, job.k + 1)]
            choice = [[table.choice_at(m, k) for m in masks] for k in range(1, job.k + 1)]
            return time.perf_counter() - t0, (cost, choice)
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = qcpart.cli.main(job.argv)
        elapsed = time.perf_counter() - t0
        if code != 0:
            raise check.CheckError(f"exit code {code}")
        return elapsed, buf.getvalue()

    def run_job(self, job, traced: bool) -> tuple[float, int]:
        """Run and check one job; returns (seconds, report bytes)."""
        job_id = len(self.labels)
        self.labels.append(job.label)
        try:
            if traced:
                self.tracer.job = job_id
                with self.tracer.span("job"):
                    elapsed, out = self._call(job)
            else:
                elapsed, out = self._call(job)
            if job.kind == "dp_table":
                check.check_dp_table(job, *out, self.rng)
                return elapsed, 0
            report = json.loads(out)
            if job.kind == "oracle":
                check.check_oracle(job, report)
            else:
                check.check_partition(job, report, self.rng)
            return elapsed, len(out.encode())
        except (Exception, SystemExit) as exc:  # any crash or failed check fails the job
            self.failed += 1
            print(f"FAILED {job.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return float("nan"), 0

    def run_pass(self, traced: bool) -> dict:
        gc.collect()
        first = len(self.labels)
        if traced:
            self.tracer.install()
        try:
            results = [self.run_job(job, traced) for job in self.jobs]
        finally:
            if traced:
                self.tracer.uninstall()
        times = [t for t, _ in results]
        return {"wall_s": sum(times), "job_s": times, "bytes": sum(b for _, b in results),
                "job_ids": set(range(first, len(self.labels)))}


def run_passes(runner: Runner, seconds: float, traced_too: bool) -> tuple[list, list]:
    """Untraced (and, with traced_too, alternating traced) passes, at least
    one of each, until another pass as long as the last one would end more
    than half a pass after `seconds`, so runs average `seconds`."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        use_trace = traced_too and len(traced) < len(plain)
        (traced if use_trace else plain).append(runner.run_pass(use_trace))
        now = time.perf_counter()
        done = not traced_too or traced
        if done and now - start + (now - t0) / 2 > seconds:
            return plain, traced


def end_to_end(plain: list, setup_s: float) -> dict:
    """Each timing is taken per pass, then the median over passes."""
    def job_ms(decile: int) -> float:
        return 1000 * statistics.median(
            statistics.quantiles(p["job_s"], n=10, method="inclusive")[decile - 1] for p in plain)

    return {
        "wall_s": (statistics.median(p["wall_s"] for p in plain), "s"),
        "job_ms.p50": (job_ms(5), "ms"),
        "job_ms.p90": (job_ms(9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(runner: Runner, plain: list, traced: list) -> dict:
    jobs = runner.jobs
    states = sum(j.dp_states for j in jobs)
    pairs = sum(j.dp_pairs for j in jobs)
    per_pass = [runner.tracer.layer_ms(p["job_ids"]) for p in traced]

    def ms(span: str) -> tuple[float, str]:
        return statistics.median(p[span] for p in per_pass), "ms"

    solve_ms = ms("dpcore.solve")[0]
    out = {
        "circuit.parse_ms": ms("circuit.parse"),
        "bigraph.graph_ms": ms("bigraph.graph"),
        "bigraph.weights_ms": ms("bigraph.weights"),
        "dpcore.solve_ms": ms("dpcore.solve"),
        "dpcore.ns_per_pair": (solve_ms * 1e6 / pairs, "ns"),
        "partitioner.self_ms": ms("partitioner.dp.self"),
        "partitioner.recheck_ms": ms("partitioner.recheck"),
        "partitioner.table_read_ms": ms("partitioner.table_read"),
        "partitioner.oracle_ms": ms("partitioner.oracle"),
        "executor.trace_ms": ms("executor.trace"),
        "executor.metrics_ms": ms("executor.metrics"),
        "cli.self_ms": ms("cli.main.self"),
    }
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    out.update({
        "circuit.gates": (sum(j.parsed_gates for j in jobs), "count"),
        "dpcore.states": (states, "count"),
        "dpcore.pairs": (pairs, "count"),
        "partitioner.oracle_partitions": (sum(j.oracle_partitions for j in jobs), "count"),
        "cli.report_bytes": (statistics.median(p["bytes"] for p in traced), "bytes"),
        "trace.overhead_pct": ((traced_wall / plain_wall - 1) * 100, "%"),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    qcpart = load_qcpart()
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=HERE))
    try:
        jobs = workloads.build(args.workload, args.seed, workdir)
        env = environment(qcpart, jobs)
        tracer = Tracer() if args.trace else None
        setup_s = None if args.trace else measure_setup()
        runner = Runner(qcpart, jobs, args.seed, tracer)
        with contextlib.redirect_stdout(io.StringIO()):
            qcpart.cli.main(["partition", "--gen", "qft:4", "--parts", "2", "--format", "json"])
        plain, traced = run_passes(runner, args.seconds, bool(args.trace))
        ok = runner.failed == 0
        if not ok:
            metrics = {}
        elif args.trace:
            metrics = per_layer(runner, plain, traced)
        else:
            metrics = end_to_end(plain, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = {
        "workload": args.workload, "seed": args.seed, "env": env,
        "pass_wall_s": [p["wall_s"] for p in plain],
        "traced_pass_wall_s": [p["wall_s"] for p in traced], "jobs_per_pass": len(jobs),
        "failed_frac": runner.failed / len(runner.labels),
    }
    if tracer is not None:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        work = {j.label: {"n": j.circuit.n, "k": j.k, "dp_states": j.dp_states,
                          "dp_pairs": j.dp_pairs, "oracle_partitions": j.oracle_partitions,
                          "parsed_gates": j.parsed_gates} for j in jobs}
        path.write_text(json.dumps({**summary, "jobs": work, "job_labels": runner.labels,
                                    "spans": tracer.records()}), encoding="utf-8")
        summary["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(summary))
    print(json.dumps({
        "correct": ok,
        "attempted": len(runner.labels),
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
