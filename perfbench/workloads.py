"""The benchmark's workloads and the pinned reference record streams.

Each workload is one ``verify`` command line.  Its reference is the JSON
record stream that command prints, with ``elapsed_ms`` removed and in the
order the CLI emits it.  The stream is the same for every ``--seed``: the
seed only picks the sampled inputs of the randomized checks, whose records
do not depend on it.

Rewrite the references (only when a change alters the set of checks on
purpose, and say so in that change) from the root of a checkout with::

    python3 perfbench/workloads.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# name -> verify arguments (the benchmark appends --seed S)
WORKLOADS = {
    "default": ("all", "--format", "json"),
    "large-primes": ("all", "--primes", "11,13", "--format", "json"),
    "ss-sweep": ("ss", "--sweep-scalars", "--format", "json"),
}


def verify_argv(workload: str, seed: int) -> list[str]:
    return [*WORKLOADS[workload], "--seed", str(seed)]


def child_env(checkout: Path, threads: str | None = None) -> dict[str, str]:
    """The user's environment, with the checkout's sources first on the path.

    ``MILNOR_FORGE_THREADS`` is removed unless ``threads`` sets it, so the
    end-to-end runs see the default worker count.  ``PYTHONDONTWRITEBYTECODE``
    is removed so that, as with an installed package, the modules are
    compiled once (by an untimed warm-up) and not in every timed process.
    """
    env = dict(os.environ)
    src = str(checkout / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.pop("MILNOR_FORGE_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if threads is not None:
        env["MILNOR_FORGE_THREADS"] = threads
    return env


def strip_elapsed(line: str) -> dict:
    record = json.loads(line)
    record.pop("elapsed_ms", None)
    return record


def load_reference(workload: str) -> list[dict]:
    path = REFERENCE_DIR / f"{workload}.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines()]


def failed_records(reference: list[dict], stdout: str, exit_code: int) -> int:
    """Records of one run that do not match the reference.

    A record counts once if it is missing, unexpected, different from the
    reference, or has status ``fail``.  A wrong exit code, unparsable output,
    a duplicated record or records out of the reference order fail every
    expected record.
    """
    if exit_code != 0:
        return len(reference)
    try:
        got = [strip_elapsed(line) for line in stdout.splitlines() if line.strip()]
    except (json.JSONDecodeError, AttributeError):
        return len(reference)

    def key(record):
        return record.get("check_id"), record.get("prime")

    want = {key(r): r for r in reference}
    have = {key(r): r for r in got}
    if len(have) != len(got):
        return len(reference)
    order = [key(r) for r in reference if key(r) in have]
    if [key(r) for r in got if key(r) in want] != order:
        return len(reference)
    failed = 0
    for k in want.keys() | have.keys():
        r = have.get(k)
        if r is None or k not in want or r != want[k] or r.get("status") == "fail":
            failed += 1
    return failed


def write_references(checkout: Path) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, "-m", "milnor_forge", *verify_argv(name, 20259)],
            env=child_env(checkout), capture_output=True, text=True, check=True,
        )
        lines = [
            json.dumps(strip_elapsed(line), ensure_ascii=False)
            for line in proc.stdout.splitlines()
        ]
        (REFERENCE_DIR / f"{name}.jsonl").write_text("".join(l + "\n" for l in lines))
        print(f"{name}: {len(lines)} records")


if __name__ == "__main__":
    write_references(Path.cwd())
