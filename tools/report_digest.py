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
perfbench/ is written.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
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


def main() -> int:
    every = hashlib.sha256()
    count = 0
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name in workloads.WORKLOADS:
                workdir = Path(name)
                workdir.mkdir()
                digest = hashlib.sha256()
                jobs = workloads.build(name, workloads.DEFAULT_SEED, workdir)
                for job in jobs:
                    code, text = output(job)
                    record = f"{job.label}\0{code}\0{text}\0".encode()
                    digest.update(record)
                    every.update(record)
                count += len(jobs)
                print(f"{name:6} {len(jobs):4} jobs  {digest.hexdigest()}")
        finally:
            os.chdir(home)
    print(f"all    {count:4} jobs  {every.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
