"""Static checks on the package's sources, with the stdlib ``ast`` module
only.  The package declares ``requires-python = ">=3.10"``: every module of
it parses as Python 3.10, whichever interpreter runs the tests.  No module
imports a name at module level that it never uses, and no line is longer
than ``MAX_LINE`` characters."""

import ast
from pathlib import Path

import pytest

import milnor_forge

MODULES = sorted(Path(milnor_forge.__file__).resolve().parent.glob("*.py"))
MAX_LINE = 99


def unused_imports(source: str) -> list[str]:
    """The names a module-level import binds that the module never reads,
    counting names inside string annotations (``-> "FieldMatrix"``)."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_modules_found():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_lines_fit(path):
    lines = path.read_text().splitlines()
    long = [n for n, line in enumerate(lines, 1) if len(line) > MAX_LINE]
    assert long == [], f"lines longer than {MAX_LINE} characters: {long}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_dead_and_live_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from . import ffla\n"
        "from .ffla import FieldMatrix, nullspace, rref as reduce\n"
        "def f(m) -> 'FieldMatrix':\n"
        "    return ffla.in_span(m)\n"
    )
    assert unused_imports(source) == ["os", "nullspace", "reduce"]
