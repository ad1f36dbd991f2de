"""Seeded inputs and job lists for the three workloads.

Every input is made here from the seed and written to disk before any
timing starts; qcpart only ever sees the generated files and --gen specs.
Random circuits have the shape of the test suite's random circuits: each
gate is a CNOT on a uniformly random pair of distinct qubits with
probability 0.8, otherwise a single-qubit H on a random qubit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from pathlib import Path

import numpy as np

from counts import bell, dp_work

DEFAULT_SEED = 0

# Optimal costs on DEFAULT_SEED, keyed by job label. They pin the exact
# answer, so an engine that returns a worse split fails even where the
# benchmark's own checks only prove consistency.
PINNED_COSTS = {
    "wide": {"rand16.k4": 68},
    "table": {"rand13.k4.cap4.table": 133, "rand14.k4.dp_table": 72},
}

WORKLOADS = ("wide", "table", "deep")
THREADS = "1"  # DP worker threads passed to every partition job


@dataclass
class Circuit:
    """A generated circuit as the checker sees it: width, gate count and
    the 0-based endpoints of every two-qubit gate."""

    n: int
    gates: int
    pairs: np.ndarray  # shape (two-qubit gates, 2)


@dataclass
class Job:
    """One call into qcpart and what its output must satisfy."""

    label: str
    kind: str  # "partition", "oracle" or "dp_table"
    circuit: Circuit
    k: int
    argv: list[str] = field(default_factory=list)
    path: str = ""  # input file for the library dp_table job
    cap: int | None = None
    table: bool = False
    trace: bool = False
    expected_cost: int | None = None
    parsed_gates: int = 0  # gates the circuit layer parses (0 for --gen)
    dp_states: int = 0
    dp_pairs: int = 0
    oracle_partitions: int = 0


def random_circuit(rng: np.random.Generator, n: int, gates: int) -> tuple[str, Circuit]:
    """.qc text and checker view of one random circuit."""
    two = rng.random(gates) >= 0.2
    a = rng.integers(n, size=gates)
    b = rng.integers(n - 1, size=gates)
    b += b >= a  # uniform over qubits other than a
    lines = [f"qubits {n}"]
    for is_two, x, y in zip(two.tolist(), a.tolist(), b.tolist()):
        lines.append(f"cnot {x + 1} {y + 1}" if is_two else f"h {x + 1}")
    pairs = np.stack([a[two], b[two]], axis=1)
    return "\n".join(lines) + "\n", Circuit(n, gates, pairs)


def qft_circuit(n: int) -> Circuit:
    """Checker view of qcpart's qft:n: one H per qubit and one controlled
    phase on every unordered pair."""
    pairs = np.array([(j, i) for i in range(n) for j in range(i + 1, n)], dtype=np.int64)
    return Circuit(n, n + len(pairs), pairs.reshape(-1, 2))


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Write the workload's inputs into workdir and return its jobs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    pinned = PINNED_COSTS.get(workload, {}) if seed == DEFAULT_SEED else {}
    jobs: list[Job] = []

    def add(job: Job, full_table: bool) -> None:
        job.dp_states, job.dp_pairs = dp_work(job.circuit.n, job.k, full_table)
        if job.label in pinned:
            job.expected_cost = pinned[job.label]
        jobs.append(job)

    if workload == "wide":
        text, circ = random_circuit(rng, 16, 320)
        path = _write(workdir, "rand16.qc", text)
        add(Job("rand16.k4", "partition", circ, 4, parsed_gates=circ.gates,
                argv=["partition", "--circuit", path, "--parts", "4",
                      "--threads", THREADS, "--format", "json"]), False)
        # an optimal split of a complete graph peels K-1 single qubits
        add(Job("qft14.k3", "partition", qft_circuit(14), 3,
                expected_cost=comb(14, 2) - comb(14 - 3 + 1, 2),
                argv=["partition", "--gen", "qft:14", "--parts", "3",
                      "--threads", THREADS, "--format", "json"]), False)
    elif workload == "table":
        text, circ = random_circuit(rng, 13, 260)
        path = _write(workdir, "rand13.qc", text)
        add(Job("rand13.k4.cap4.table", "partition", circ, 4, cap=4, table=True,
                parsed_gates=circ.gates,
                argv=["partition", "--circuit", path, "--parts", "4", "--table",
                      "--max-part-size", "4", "--threads", THREADS, "--format", "json"]), True)
        text, circ = random_circuit(rng, 14, 280)
        path = _write(workdir, "rand14.qc", text)
        add(Job("rand14.k4.dp_table", "dp_table", circ, 4, path=path,
                parsed_gates=circ.gates), True)
    elif workload == "deep":
        # The seed permutes fixed sets of widths and lengths, so each seed
        # does the same total work on different circuits.
        widths = rng.permutation(np.resize(np.arange(4, 11), 60))
        lengths = rng.permutation(np.linspace(500, 3000, 60).round().astype(int))
        for i, (n, gates) in enumerate(zip(widths.tolist(), lengths.tolist())):
            text, circ = random_circuit(rng, n, gates)
            path = _write(workdir, f"deep{i:02d}.qc", text)
            for k in (2, 3):
                add(Job(f"deep{i:02d}.k{k}", "partition", circ, k, trace=True,
                        parsed_gates=circ.gates,
                        argv=["partition", "--circuit", path, "--parts", str(k), "--trace",
                              "--threads", THREADS, "--format", "json"]), False)
                if n <= 9:
                    add(Job(f"deep{i:02d}.k{k}.oracle", "oracle", circ, k,
                            parsed_gates=circ.gates, oracle_partitions=bell(n),
                            argv=["oracle", "--circuit", path, "--parts", str(k),
                                  "--compare-dp", "--format", "json"]), False)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return jobs
