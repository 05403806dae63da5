"""Outside-in layer trace of milnor_forge, installed from the benchmark.

``Tracer.install`` replaces each public function named in ``SPANS`` with a
wrapper that records a span (calls, inclusive time, self time), and the
constructors named in ``CONSTRUCTORS`` with a wrapper that counts calls.
Nothing under ``src/`` changes.  A name imported by value into another
``milnor_forge`` module (``from .galg import multiply``) is a second
reference to the same function, so every module and class of the package is
scanned and each such reference is replaced too; a call through any of them
is traced.

Spans nest on one stack, so the traced program must run one worker at a time
(``MILNOR_FORGE_THREADS=1``): the worker thread's spans then sit under the
main thread's ``cli.run``.  A span's self time is its duration minus the
durations of its direct children.  Work counts are computed inside the span
they belong to, so their cost is charged to that span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

PACKAGE = "milnor_forge"
ROOT = "cli.run"

SPANS = (
    ROOT,
    "report.run_check",
    "ffla.rref",
    "ffla.nullspace",
    "ffla.row_space_basis",
    "ffla.in_span",
    "ffla.FieldMatrix.__mul__",
    "cyclo.CycMatrix.__mul__",
    "galg.multiply",
    "galg.AlgebraMap.__call__",
    "galg.linear_substitution",
    "milnor.Derivation.__call__",
    "invariants.induced_action",
    "invariants.invariant_subspace",
    "invariants.group_closure",
    "invariants.group_closure_oracle",
    "specseq.run_scenario",
    "specseq.turn_page",
    "specseq.DifferentialSpec.apply",
    "specseq.verify_dd_zero",
)

# constructor -> count name
CONSTRUCTORS = {
    "ffla.FieldMatrix.__init__": "ffla.FieldMatrix.constructed",
    "galg.Element.__init__": "galg.Element.constructed",
}


def _cyc_entry_products(args, result) -> int:
    """Entry products a zero-skipping n x n product performs."""
    a, b = args[0], args[1]
    n = a.size
    col_nonzero = [sum(1 for i in range(n) if not a.rows[i][k].is_zero) for k in range(n)]
    return sum(
        col_nonzero[k] * sum(1 for x in b.rows[k] if not x.is_zero) for k in range(n)
    )


# span -> (count name, amount from (positional args, result))
WORK = {
    "ffla.rref": ("ffla.rref.cells", lambda args, result: args[0].rows * args[0].cols),
    "cyclo.CycMatrix.__mul__": ("cyclo.CycMatrix.__mul__.entry_products", _cyc_entry_products),
    "galg.multiply": (
        "galg.multiply.term_pairs",
        lambda args, result: len(args[0].terms) * len(args[1].terms),
    ),
    "invariants.group_closure": (
        "invariants.group_closure.elements", lambda args, result: len(result)
    ),
    "specseq.turn_page": (
        "specseq.turn_page.bidegrees", lambda args, result: len(args[0].components)
    ),
}

COUNTS = tuple(CONSTRUCTORS.values()) + tuple(count for count, _ in WORK.values())


def package_namespaces():
    """Every loaded ``milnor_forge`` module, and every class defined in one."""
    modules = [
        m for name, m in list(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]
    classes = [
        obj for m in modules for obj in vars(m).values()
        if inspect.isclass(obj) and obj.__module__.startswith(PACKAGE)
    ]
    return modules + list(dict.fromkeys(classes))


def _resolve(name: str):
    """``"galg.AlgebraMap.__call__"`` -> (owner object, attribute, original)."""
    module, *path = name.split(".")
    owner = importlib.import_module(f"{PACKAGE}.{module}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1], vars(owner)[path[-1]]


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stack: list[list[int]] = []
        self.calls: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, work=None):
        """Wrap ``fn`` so each call records a span named ``name``."""
        stack, clock = self.stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_ns = [0]
            stack.append(child_ns)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    self.counts[work[0]] += work[1](args, result)
                return result
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                self.calls[name] += 1
                self.total_ns[name] += duration
                self.self_ns[name] += duration - child_ns[0]

        wrapper.__traced__ = fn
        return wrapper

    def counter(self, count: str, fn):
        """Wrap ``fn`` so each call adds one to ``count``."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[count] += 1
            return fn(*args, **kwargs)

        wrapper.__traced__ = fn
        return wrapper

    def install(self, spans=SPANS, constructors=CONSTRUCTORS) -> None:
        """Wrap the named functions everywhere the package refers to them."""
        importlib.import_module(f"{PACKAGE}.cli")
        wrapped = {}
        for name in spans:
            owner, attr, fn = _resolve(name)
            wrapped[id(fn)] = (fn, self.span(name, fn, WORK.get(name)))
        for name, count in constructors.items():
            owner, attr, fn = _resolve(name)
            wrapped[id(fn)] = (fn, self.counter(count, fn))
        for ns in package_namespaces():
            for attr, value in list(vars(ns).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, hit[1])

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._patches):
            setattr(ns, attr, value)
        self._patches.clear()

    def report(self) -> dict:
        return {
            "spans": {
                name: {
                    "calls": self.calls[name],
                    "total_ns": self.total_ns[name],
                    "self_ns": self.self_ns[name],
                }
                for name in sorted(self.calls)
            },
            "counts": dict(sorted(self.counts.items())),
        }
