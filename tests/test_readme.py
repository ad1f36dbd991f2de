"""The README's API example runs and its CLI examples parse, so stale docs
fail the suite."""

import re
import shlex
from fractions import Fraction
from pathlib import Path

from qcpart import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_python_api_block_runs(monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)
    ns: dict = {}
    exec(compile(blocks[0], "README.md", "exec"), ns)
    assert ns["result"].cost == 4
    assert ns["ratio"] == Fraction(1, 2)
    assert ns["capped"].cost == 3 and ns["capped"].assignment.as_lists() == [[1, 2], [3, 4]]
    assert ns["table_text"].startswith("index,qubits,k=1,k=2,k=3\n")


def test_cli_examples_parse():
    lines = [line.removeprefix("$ ") for line in README.splitlines()]
    examples = [line.split("#", 1)[0] for line in lines if line.startswith("qcpart ")]
    assert len(examples) >= 8
    parser = cli.build_parser()
    for line in examples:
        parser.parse_args(shlex.split(line)[1:])  # exits on a stale flag
