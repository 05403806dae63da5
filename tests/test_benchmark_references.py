"""Each benchmark workload, run in-process, prints its pinned record stream.

The benchmark (``perfbench/``) checks every timed run against
``perfbench/reference/<workload>.jsonl``: the JSON records with
``elapsed_ms`` removed, in the order the CLI emits them.  This test holds the
same line here, so a change that rewords, drops or reorders a record fails
the test run and not only the benchmark.  It only reads ``perfbench/``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from milnor_forge import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_records_match_reference(name, capsys):
    assert cli.main(workloads.verify_argv(name, 1)) == 0
    got = [
        json.dumps(workloads.strip_elapsed(line), ensure_ascii=False)
        for line in capsys.readouterr().out.splitlines()
    ]
    want = (PERFBENCH / "reference" / f"{name}.jsonl").read_text().splitlines()
    assert got == want
