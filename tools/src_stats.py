"""The two design numbers of src/qcpart/, per module and in total: line count
and branch points.

    python3 tools/src_stats.py             lines and branch points
    python3 tools/src_stats.py --traffic   also the lines no benchmark job runs

Branch points are counted from the AST: each ``if`` and ``elif``,
conditional expression, ``for`` and ``while`` loop, ``except`` handler,
comprehension ``if``, and each operand of ``and`` or ``or`` after the first.

--traffic runs the seed-0 jobs of every perfbench workload through
tools/report_digest.py's ``runs()``, under sys.settrace, and lists per
function the executable lines of src/qcpart/ that no job runs (a line is
executable where the compiler starts one). As there, the dp_table job
renders its table once instead of reading every cell. qcpart is imported
from this checkout's src/, only the standard library is used, and nothing
under perfbench/ is written.
"""

from __future__ import annotations

import argparse
import ast
import dis
import sys
from collections import Counter, defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qcpart"
BRANCHES = (ast.If, ast.IfExp, ast.For, ast.AsyncFor, ast.While, ast.ExceptHandler)


def branch_points(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, BRANCHES):
            count += 1
        elif isinstance(node, ast.comprehension):
            count += len(node.ifs)
        elif isinstance(node, ast.BoolOp):
            count += len(node.values) - 1
    return count


def executable_lines(path: Path) -> dict[int, str]:
    """Each executable line of a module and the function it belongs to, by
    qualified name; a comprehension's lines belong to the function around it."""
    lines = {}
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo.extend(c for c in code.co_consts if hasattr(c, "co_code"))
        owner = ".".join(p for p in code.co_qualname.split(".") if not p.startswith("<"))
        for _, line in dis.findlinestarts(code):
            if line is not None:
                lines.setdefault(line, owner or "<module>")
    return lines


def ran_lines() -> dict[str, set[int]]:
    """The lines of src/qcpart/ that the seed-0 benchmark jobs run, per file,
    the package's import included."""
    ran = defaultdict(set)
    inside = str(PACKAGE)

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(inside):
            return None
        ran[frame.f_code.co_filename].add(frame.f_lineno)

        def local(frame, event, arg):
            ran[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return local

    sys.settrace(trace)
    try:
        import report_digest  # imports qcpart, so its module lines are traced too
        for _ in report_digest.runs():
            pass
    finally:
        sys.settrace(None)
    return ran


def spans(lines: list[int]) -> str:
    """Sorted line numbers as runs, e.g. ``3-5, 9``."""
    runs = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(f"{a}-{b}" if a < b else f"{a}" for a, b in runs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--traffic", action="store_true",
                        help="list the executable lines that no seed-0 benchmark job runs")
    args = parser.parse_args()
    modules = sorted(PACKAGE.glob("*.py"))
    total_lines = total_branches = 0
    print(f"{'module':16} {'lines':>6} {'branches':>9}")
    for path in modules:
        text = path.read_text(encoding="utf-8")
        lines, branches = len(text.splitlines()), branch_points(ast.parse(text))
        total_lines += lines
        total_branches += branches
        print(f"{path.name:16} {lines:6} {branches:9}")
    print(f"{'total':16} {total_lines:6} {total_branches:9}")
    if not args.traffic:
        return 0
    ran = ran_lines()
    print("\nexecutable lines that no seed-0 benchmark job runs:")
    for path in modules:
        lines = executable_lines(path)
        every = Counter(lines.values())
        unrun = defaultdict(list)
        for line in sorted(set(lines) - ran[str(path)]):
            unrun[lines[line]].append(line)
        for owner, missed in sorted(unrun.items(), key=lambda item: item[1][0]):
            whole = " (never run)" if len(missed) == every[owner] else ""
            print(f"  {path.stem}.{owner}: {len(missed)} of {every[owner]}{whole}: {spans(missed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
