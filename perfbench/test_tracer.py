"""Tests of the benchmark's tracer and record check.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_tracer.py
"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from milnor_forge import cli, cyclo, ffla, galg, invariants, milnor, specseq  # noqa: E402


@pytest.fixture
def installed():
    t = tracer.Tracer()
    t.install()
    yield t
    t.uninstall()


def originals():
    found = {}
    for name in list(tracer.SPANS) + list(tracer.CONSTRUCTORS):
        found[id(tracer._resolve(name)[2])] = name
    return found


def references(ns):
    """Every value a namespace holds, including default arguments of its functions."""
    for attr, value in vars(ns).items():
        yield attr, value
        if inspect.isfunction(value):
            for i, default in enumerate(value.__defaults__ or ()):
                yield f"{attr}.__defaults__[{i}]", default
            for key, default in (value.__kwdefaults__ or {}).items():
                yield f"{attr}.__kwdefaults__[{key}]", default


def test_no_reference_to_an_original_survives_install():
    before = originals()
    # the names imported by value that a module-only patch would miss
    assert milnor.multiply is galg.multiply and specseq.multiply is galg.multiply
    assert invariants.multiply is galg.multiply
    assert cli.rref is ffla.rref and cli.nullspace is ffla.nullspace
    t = tracer.Tracer()
    t.install()
    try:
        leftovers = [
            f"{getattr(ns, '__name__', ns)}.{attr} is {before[id(value)]}"
            for ns in tracer.package_namespaces()
            for attr, value in references(ns)
            if id(value) in before and getattr(value, "__traced__", None) is None
        ]
        assert leftovers == []
        for module in (milnor, specseq, invariants):
            assert module.multiply is galg.multiply
            assert module.multiply.__traced__ is not None
        assert cli.rref is ffla.rref and cli.rref.__traced__ is not None
        assert cli.nullspace is ffla.nullspace and cli.nullspace.__traced__ is not None
    finally:
        t.uninstall()
    assert originals() == before
    assert milnor.multiply is galg.multiply and not hasattr(galg.multiply, "__traced__")


def test_calls_through_imported_names_are_traced(installed):
    ctx = galg.elementary_abelian_context(3, 2, 6)
    q0 = milnor.milnor_q(0, ctx)
    q0(ctx.generator("y1") * ctx.generator("y2"))
    assert installed.calls["milnor.Derivation.__call__"] == 1
    assert installed.calls["galg.multiply"] > 0
    assert installed.counts["galg.Element.constructed"] > 0
    cli.nullspace(ffla.FieldMatrix([[1, 2], [2, 4]], 5))
    assert installed.calls["ffla.nullspace"] == 1 and installed.calls["ffla.rref"] == 1
    assert installed.counts["ffla.rref.cells"] == 4
    one = cyclo.CycMatrix.identity(3, 4)
    assert one * one == one
    assert installed.counts["cyclo.CycMatrix.__mul__.entry_products"] == 4


def test_self_time_of_nested_spans_is_exact():
    ticks = iter([0, 10, 13, 20, 26, 40, 1000, 1007])
    t = tracer.Tracer(clock=lambda: next(ticks))
    inner = t.span("inner", lambda: None)

    def body():
        inner()  # 10 .. 13
        inner()  # 20 .. 26

    outer = t.span("outer", body)
    outer()  # 0 .. 40
    outer_alone = t.span("outer", lambda: None)
    outer_alone()  # 1000 .. 1007
    assert t.calls == {"outer": 2, "inner": 2}
    assert t.total_ns == {"outer": 47, "inner": 9}
    assert t.self_ns == {"outer": 38, "inner": 9}
    assert t.stack == []


def test_spans_close_when_the_call_raises():
    ticks = iter([0, 5, 9, 12])
    t = tracer.Tracer(clock=lambda: next(ticks))

    def fail():
        raise ValueError("boom")

    inner = t.span("inner", fail)

    def body():
        with pytest.raises(ValueError):
            inner()  # 5 .. 9

    t.span("outer", body)()  # 0 .. 12
    assert t.self_ns == {"outer": 8, "inner": 4}
    assert t.stack == []


REFERENCE = [
    {"check_id": "a", "prime": 2, "status": "pass", "details": "x"},
    {"check_id": "a", "prime": 3, "status": "note", "details": "y"},
    {"check_id": "b", "prime": 2, "status": "pass", "details": "z"},
]


def stream(records):
    return "".join(json.dumps(dict(r, elapsed_ms=7)) + "\n" for r in records)


@pytest.mark.parametrize(
    ("records", "exit_code", "failed"),
    [
        (REFERENCE, 0, 0),
        (REFERENCE, 1, 3),
        (REFERENCE[:2], 0, 1),
        (REFERENCE + [{"check_id": "c", "prime": 2, "status": "pass", "details": ""}], 0, 1),
        ([REFERENCE[0], dict(REFERENCE[1], details="changed"), REFERENCE[2]], 0, 1),
        ([REFERENCE[0], REFERENCE[1], dict(REFERENCE[2], status="fail")], 0, 1),
        ([REFERENCE[1], REFERENCE[0], REFERENCE[2]], 0, 3),
    ],
)
def test_failed_records(records, exit_code, failed):
    assert workloads.failed_records(REFERENCE, stream(records), exit_code) == failed


def test_unparsable_output_fails_every_record():
    assert workloads.failed_records(REFERENCE, "Traceback ...\n", 0) == 3


@pytest.mark.parametrize(
    ("cells", "rref_calls", "correct"),
    [((4, 4), (1, 1), True), ((4, 6), (1, 1), False), ((4, 4), (1, 2), False)],
)
def test_traced_counts_that_differ_between_runs_make_the_result_incorrect(
    cells, rref_calls, correct, monkeypatch, capsys
):
    records = stream(workloads.load_reference("ss-sweep"))
    traced_runs = iter(zip(cells, rref_calls))

    def fake_inproc(name, seed, traced, env, clock):
        spans = {tracer.ROOT: {"calls": 1, "total_ns": 100, "self_ns": 90}}
        counts = {}
        if traced:
            cell_count, calls = next(traced_runs)
            spans["ffla.rref"] = {"calls": calls, "total_ns": 10, "self_ns": 10}
            counts["ffla.rref.cells"] = cell_count
        return {"exit": 0, "stdout": records, "spans": spans, "counts": counts}

    monkeypatch.setattr(run, "inproc_child", fake_inproc)
    monkeypatch.setattr(run, "setup_child", lambda env, clock: None)
    monkeypatch.setattr(run.signal, "signal", lambda signum, handler: None)
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    monkeypatch.setattr(sys, "argv", ["run.py", "--workload", "ss-sweep", "--seed", "1",
                                      "--seconds", "0", "--trace", "1"])
    run.main()
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2][len("detail: "):])
    assert result["failed"] == 0 and result["attempted"] == 4 * 53
    assert detail["counts_repeat"] is correct and result["correct"] is correct
    assert "cyclo.CycMatrix.__mul__" in detail["unreached"]
    assert "ffla.rref" not in detail["unreached"]
