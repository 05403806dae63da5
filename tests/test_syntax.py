"""Static checks on the package's sources, with the stdlib ``ast`` module
only.  The package declares ``requires-python = ">=3.10"``: every module of
it parses as Python 3.10, whichever interpreter runs the tests.  No module
imports a name at module level that it never uses, no line is longer than
``MAX_LINE`` characters, and every public function, class and non-dunder
method is referenced by some module of the package (``UNREFERENCED`` names
the exceptions)."""

import ast
from pathlib import Path

import pytest

import milnor_forge

MODULES = sorted(Path(milnor_forge.__file__).resolve().parent.glob("*.py"))
MAX_LINE = 99

# definitions no module of the package references, each with its reason
UNREFERENCED = {
    "galg.linear_substitution": (
        "the benchmark's tracer times it as a span; it stays bound until a "
        "benchmark change retires that span"
    ),
    "cyclo.root_power_sum": (
        "the per-input reference the tests compare the batched check bodies against"
    ),
    "cyclo.lemma22_holds": (
        "the per-input reference the tests compare the batched check bodies against"
    ),
}


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


def unreferenced(sources: dict[str, str]) -> list[str]:
    """``module.name`` (``module.Class.method`` for a method) of every
    public module-level function or class, and every non-dunder method of a
    module-level class, whose name no module in ``sources`` (module name ->
    source) reads as a name or an attribute.  Matching is by name alone, so
    a reference to another definition of the same name counts."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                defined.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{module}.{node.name}.{sub.name}", sub.name)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                    and not (sub.name.startswith("__") and sub.name.endswith("__"))
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [qualified for qualified, name in defined if name not in read]


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


def test_every_public_definition_is_referenced_in_the_package():
    # a name outside UNREFERENCED shows with reason None; an exception that
    # has gained a reference, or gone, shows as missing
    sources = {path.stem: path.read_text() for path in MODULES}
    found = unreferenced(sources)
    assert {name: UNREFERENCED.get(name) for name in found} == UNREFERENCED


def test_reference_check_sees_dead_and_live_definitions():
    sources = {
        "a": (
            "class Box:\n"
            "    def __init__(self): self.open()\n"
            "    def open(self): pass\n"
            "    def _seal(self): pass\n"
            "def make(): return Box()\n"
            "def orphan(): pass\n"
            "def _helper(): pass\n"
        ),
        "b": "from .a import make\nVALUE = make()\n",
    }
    assert unreferenced(sources) == ["a.Box._seal", "a.orphan"]
