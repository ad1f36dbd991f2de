"""Every declared runtime dependency imports, every exported name resolves
and is the one imported, and no production check is an ``assert``."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import qcpart

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_runtime_dependencies_import():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    deps = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["dependencies"]
    assert deps
    for spec in deps:
        name = re.match(r"[A-Za-z0-9_.-]+", spec).group(0)
        importlib.import_module(name.replace("-", "_"))


def test_public_names_resolve():
    assert len(set(qcpart.__all__)) == len(qcpart.__all__)
    for name in qcpart.__all__:
        assert getattr(qcpart, name, None) is not None, name


def test_exports_match_imports():
    # a name imported into ``__init__.py`` but left out of ``__all__``, or the
    # reverse, is an export that went stale when its definition moved or went
    tree = ast.parse((ROOT / "src" / "qcpart" / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(imported) == sorted(qcpart.__all__)


def test_no_assert_statements_in_package():
    # ``python -O`` strips assert statements, so no check in the package may rely on one
    found = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in sorted((ROOT / "src" / "qcpart").rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_unused_module_imports():
    # a module-level import no code in its module reads is left over from a
    # deletion; ``__init__.py`` is exempt because it re-exports
    found = []
    for path in sorted((ROOT / "src" / "qcpart").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    assert found == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_no_module_reads_another_modules_private_names():
    # a private name read from another module ties the reader to that
    # module's layout; the owner should export what the reader needs
    package = ROOT / "src" / "qcpart"
    modules = {path.stem for path in package.glob("*.py")}
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = set()  # names this module binds to a qcpart module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "qcpart"
                                                     or node.module.startswith("qcpart.")):
                for alias in node.names:
                    if _private(alias.name):
                        found.append(f"{path.relative_to(ROOT)}:{node.lineno}: {alias.name}")
                    elif node.module in (None, "qcpart") and alias.name in modules:
                        bound.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                bound.update(alias.asname for alias in node.names
                             if alias.asname and alias.name.startswith("qcpart."))
        found += [f"{path.relative_to(ROOT)}:{node.lineno}: {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in bound and _private(node.attr)]
    assert found == []
