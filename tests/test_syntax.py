"""Static checks on the package's sources, with the stdlib ``ast`` module
only.  The package declares ``requires-python = ">=3.10"``: every module of
it parses as Python 3.10, whichever interpreter runs the tests.  No module
imports a name at module level that it never uses, no line is longer than
``MAX_LINE`` characters, every public function, class and non-dunder
method is referenced by some module of the package (``UNREFERENCED`` names
the exceptions), every ``__slots__`` attribute is read by some module of the
package (``UNREAD_SLOTS`` names the exceptions), and no module reaches into
another's private state (``FOREIGN_PRIVATE`` names the exceptions).  One
check runs the package instead: every ``__slots__`` attribute is read on an
in-process ``verify all`` run (``UNREAD_ON_A_RUN`` names the exceptions)."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import milnor_forge
from milnor_forge import cli

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

# __slots__ attributes no module of the package reads, each with its reason
UNREAD_SLOTS: dict[str, str] = {}

# __slots__ attributes that a passing ``verify all --primes 2,3,5`` run never
# reads, each with its reason
UNREAD_ON_A_RUN = {
    "cyclo.CycMatrix._rows": (
        "the dense entries, built on first use of ``rows``, which only a "
        "mismatch's message and the benchmark's tracer read"
    ),
}

# underscore names one module reads on another's objects, each with its reason
FOREIGN_PRIVATE = {
    "_trusted": (
        "the package-internal constructors of ffla.FieldMatrix and galg.Element, "
        "for results the package builds itself"
    ),
    "_Echelon": "ffla's echelon basis, which specseq's page engine builds on",
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


def unread_slots(sources: dict[str, str]) -> list[str]:
    """``module.Class.attr`` for every attribute a class of ``sources``
    (module name -> source) lists in ``__slots__`` whose name no module reads:
    as a loaded or augmented attribute, or through ``getattr`` with a
    constant name.  Matching is by name alone, so a read of another object's
    attribute of the same name counts."""
    slots, read = [], set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
                    ):
                        value = stmt.value
                        names = getattr(value, "elts", [value])
                        slots += [(f"{module}.{node.name}.{n.value}", n.value) for n in names]
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                read.add(node.target.attr)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
            ):
                read.add(node.args[1].value)
    return [qualified for qualified, name in slots if name not in read]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_definitions(tree: ast.AST) -> set[str]:
    """The underscore names a module defines: functions and classes at any
    depth, names it assigns, and attributes it assigns on ``self`` or
    ``cls``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls")
        ):
            out.add(node.attr)
    return {name for name in out if _private(name)}


def foreign_private_access(sources: dict[str, str]) -> list[tuple[str, str]]:
    """``(module, name)`` for every ``obj._name`` read or write in a module
    of ``sources`` (module name -> source), ``obj`` not ``self`` or ``cls``,
    whose ``_name`` another module defines (``private_definitions``) and this
    one does not.  Names a from-import binds are not attribute accesses and
    are not looked at."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = {module: private_definitions(tree) for module, tree in trees.items()}
    found = set()
    for module, tree in trees.items():
        elsewhere = set().union(*(d for m, d in defined.items() if m != module))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in elsewhere - defined[module]
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
            ):
                found.add((module, node.attr))
    return sorted(found)


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


def test_every_slot_is_read_in_the_package():
    # a slot outside UNREAD_SLOTS shows with reason None; an exception that
    # is read now, or gone, shows as missing
    sources = {path.stem: path.read_text() for path in MODULES}
    found = unread_slots(sources)
    assert {name: UNREAD_SLOTS.get(name) for name in found} == UNREAD_SLOTS


def test_slot_check_sees_stored_and_read_attributes():
    sources = {
        "a": (
            "class Box:\n"
            "    __slots__ = ('size', 'label', 'count', 'kept', 'dropped')\n"
            "    def __init__(self):\n"
            "        self.size = self.label = self.kept = self.dropped = 0\n"
            "        self.count = 0\n"
            "    def grow(self): self.count += 1\n"
            "class Tag:\n"
            "    __slots__ = 'name'\n"
            "def area(box): return box.size * box.size\n"
        ),
        "b": "def show(box): return getattr(box, 'label'), getattr(box, box.kept)\n",
    }
    assert unread_slots(sources) == ["a.Box.dropped", "a.Tag.name"]


def test_no_module_reaches_into_another_modules_private_state():
    # a name outside FOREIGN_PRIVATE shows with reason None; an exception
    # that is no longer reached for, or gone, shows as missing
    sources = {path.stem: path.read_text() for path in MODULES}
    found = {name for _, name in foreign_private_access(sources)}
    assert {name: FOREIGN_PRIVATE.get(name) for name in found} == FOREIGN_PRIVATE


def test_foreign_private_check_sees_reads_and_writes_across_modules():
    sources = {
        "a": (
            "class Box:\n"
            "    def __init__(self): self._memo = {}; self._size = 0\n"
            "    def _grow(self): self._size += 1\n"
            "    @classmethod\n"
            "    def _empty(cls): return cls.__new__(cls)\n"
            "def _helper(): pass\n"
        ),
        "b": (
            "from . import a\n"
            "from .a import _helper\n"
            "def peek(box): return box._memo, box.__class__\n"
            "def poke(box): box._grow(); box._fresh = 1\n"
            "def make(): return a.Box._empty(), a._helper(), _helper()\n"
        ),
        "c": (
            "class Own:\n"
            "    def __init__(self): self._size = 1\n"
            "def size(other): return other._size\n"
        ),
    }
    assert foreign_private_access(sources) == [
        ("b", "_empty"), ("b", "_grow"), ("b", "_helper"), ("b", "_memo"),
    ]


def slot_owners() -> list[tuple[str, type, str]]:
    """``(module.Class.attr, class, attr)`` for every attribute a class of the
    package lists in its own ``__slots__``."""
    out = []
    for path in MODULES:
        module = importlib.import_module(f"milnor_forge.{path.stem}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                slots = vars(cls).get("__slots__", ())
                for attr in (slots,) if isinstance(slots, str) else slots:
                    out.append((f"{path.stem}.{cls.__name__}.{attr}", cls, attr))
    return out


def test_every_slot_is_read_on_a_run(monkeypatch, capsys):
    # the static check matches by name alone, so a slot read on one class
    # hides an unread slot of the same name on another; here each class's
    # own slot descriptor counts the reads that reach it on one run, a
    # subclass's reads of an inherited slot included
    reads = {}
    for name, cls, attr in slot_owners():
        slot = vars(cls)[attr]

        def read(obj, name=name, slot=slot):
            reads[name] += 1
            return slot.__get__(obj, type(obj))

        reads[name] = 0
        monkeypatch.setattr(cls, attr, property(read, slot.__set__, slot.__delete__))
    assert cli.main(["all", "--primes", "2,3,5", "--format", "json"]) == 0
    capsys.readouterr()
    unread = [name for name, count in reads.items() if not count]
    # a slot outside UNREAD_ON_A_RUN shows with reason None; an exception
    # that is read now, or gone, shows as missing
    assert {name: UNREAD_ON_A_RUN.get(name) for name in unread} == UNREAD_ON_A_RUN
