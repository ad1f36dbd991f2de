"""Digests of every seed-0 benchmark job's report: equal digests on two
trees mean that their reports are byte-identical.

    python3 tools/report_digest.py

The script builds the seed-0 jobs of each workload in perfbench/workloads.py,
writing their inputs under a temporary working directory by relative paths,
so that no report holds that directory's name. It runs each partition and
oracle job through qcpart.cli.main with --no-timing appended, and renders
the dp_table job's table with DpTable.json_string(). It prints one sha256
per workload, over its jobs' labels, exit codes and outputs, then one over
every job. qcpart is imported from this checkout's src/, and nothing under
perfbench/ is written. ``runs()`` yields each job's report in turn, for
other tools that run the same jobs (tools/src_stats.py --traffic).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # no __pycache__ under perfbench/

import workloads  # noqa: E402 - found through the path set above
from qcpart import cli, dp_table, parse_circuit, qc_to_bigraph, weight_matrix  # noqa: E402


def output(job: workloads.Job) -> tuple[int, str]:
    """The exit code and the report of one job."""
    if job.kind == "dp_table":
        circuit = parse_circuit(Path(job.path).read_text(encoding="utf-8"))
        return 0, dp_table(weight_matrix(qc_to_bigraph(circuit)), job.k).json_string()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([*job.argv, "--no-timing"])
    return code, buf.getvalue()


def runs():
    """``(workload, job, exit code, report)`` for every seed-0 job, in
    order, each job's input written under one temporary working directory."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name in workloads.WORKLOADS:
                workdir = Path(name)
                workdir.mkdir()
                for job in workloads.build(name, workloads.DEFAULT_SEED, workdir):
                    yield (name, job, *output(job))
        finally:
            os.chdir(home)


def main() -> int:
    every = hashlib.sha256()
    digests, counts = {}, Counter()
    for name, job, code, text in runs():
        record = f"{job.label}\0{code}\0{text}\0".encode()
        digests.setdefault(name, hashlib.sha256()).update(record)
        every.update(record)
        counts[name] += 1
    for name, digest in digests.items():
        print(f"{name:6} {counts[name]:4} jobs  {digest.hexdigest()}")
    print(f"all    {counts.total():4} jobs  {every.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
