"""Re-run the mutation catalogue: every mutant must still be caught by the
tests it names.

    python3 mutants/run.py           every mutant in catalogue.py
    python3 mutants/run.py ID ...    only these mutants

The runner copies src/, tests/, circuits/, pyproject.toml and README.md (the
files tier-1 reads) to a temporary directory.
First it runs every named test once on the unchanged copy; they must all
pass. Then it applies one mutant at a time, in catalogue order, and runs
each named test on its own. A mutant is

  killed    when every test it names fails,
  survived  when a test it names passes (the runner names that test),
  stale     when its text does not occur exactly once in its file, or a
            named test errors before running (it is missing, or its module
            does not import), so the entry has to follow the code.

Property tests run with a fixed seed, so a verdict is the same in every run.
A test that runs past TIMEOUT seconds counts as failed. The run exits 1 if
any mutant survived or is stale, else 0. Only the standard library is used;
the tests need what tier-1 needs.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from catalogue import MUTANTS

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 600
# a fixed hypothesis seed, and no example database kept from run to run, so a
# property test finds the same examples under every mutant and in every run
PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
FAILED = 1  # pytest's exit code when tests ran and some failed


def pytest(copy: Path, *args: str) -> subprocess.CompletedProcess:
    # no .pyc is written: a mutant of the same size, saved in the same second
    # as the file before it, would otherwise load the stale bytecode
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    try:
        return subprocess.run([*PYTEST, *args], cwd=copy, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return subprocess.CompletedProcess(args, FAILED, "", f"timed out after {TIMEOUT} s")


def verdict(copy: Path, mutant: dict) -> tuple[str, str]:
    """Apply ``mutant`` to the copy, run its tests, restore the file."""
    path = copy / mutant["file"]
    original = path.read_text(encoding="utf-8")
    found = original.count(mutant["old"])
    if found != 1:
        return "stale", f"its text occurs {found} times in {mutant['file']}"
    path.write_text(original.replace(mutant["old"], mutant["new"]), encoding="utf-8")
    try:
        for test in mutant["tests"]:
            code = pytest(copy, "-x", test).returncode
            if code == 0:
                return "survived", f"{test} passes"
            if code != FAILED:
                return "stale", f"{test} did not run (pytest exit {code})"
        return "killed", ""
    finally:
        path.write_text(original, encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ids", nargs="*", help="mutant ids (default: all)")
    args = parser.parse_args()
    by_id = {m["id"]: m for m in MUTANTS}
    unknown = [i for i in args.ids if i not in by_id]
    if unknown or len(by_id) != len(MUTANTS):
        sys.exit(f"unknown mutant ids {unknown}" if unknown else "duplicate mutant ids")
    chosen = [by_id[i] for i in args.ids] if args.ids else MUTANTS
    with tempfile.TemporaryDirectory(prefix="qcpart-mutants-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "circuits"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        for part in ("pyproject.toml", "README.md"):  # test_readme runs the README
            shutil.copy2(ROOT / part, copy)
        tests = sorted({t for m in chosen for t in m["tests"]})
        clean = pytest(copy, *tests)
        if clean.returncode != 0:
            print(clean.stdout[-3000:], clean.stderr[-3000:], sep="\n")
            print("the named tests do not all pass without a mutant")
            return 2
        bad = 0
        t0 = time.perf_counter()
        for mutant in chosen:
            status, why = verdict(copy, mutant)
            bad += status != "killed"
            print(f"{status:8} {mutant['id']}" + (f": {why}" if why else ""), flush=True)
        print(f"{len(chosen) - bad} of {len(chosen)} killed in {time.perf_counter() - t0:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
