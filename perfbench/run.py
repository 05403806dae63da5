"""The milnor-forge benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures end to end.  It is a closed loop with one client: it
starts the workload's ``verify`` command as a user does (``python3 -m
milnor_forge``, its own process, the default environment), waits for the
process to exit, and starts the next one, until ``--seconds`` have passed.
Before each run it times a process that only imports ``milnor_forge.cli``
and builds its parser (``setup_s``).  Every run's records are checked
against the workload's pinned reference (see ``workloads.py``).  The metrics
are medians over the runs of the loop.

``--trace 1`` measures layer by layer.  It alternates an untraced and a
traced in-process run (``inproc.py``, one worker) until ``--seconds`` have
passed and at least two traced runs are done, checks their records the same
way, and reports per-span call counts and median self times, exact work
counts, and the trace's coverage and overhead.  The call and work counts
must repeat exactly across the traced runs, or the result is not correct.

Every metric is printed by name and unit with its quartiles and sample
count, then a ``detail:`` line with the same figures and the machine
(Python version, CPUs, a fixed pure-Python control loop).  The last line is
the result: ``{"correct", "attempted", "failed", "metrics"}``, where
``attempted`` counts the expected records over all runs and ``failed`` those
that were missing, unexpected, different or failing.  The result's metrics
are the ``--trace`` mode's metrics of ``BENCHMARK.json``: the end-to-end ones,
which carry bounds and are never 0, or every per-layer one, which carry no
bound and read 0 for a layer the workload never reaches (``detail`` lists
those as ``unreached``).  ``failed_frac`` is an end-to-end figure that is 0 on
correct code, so no bound can be a share of it; the result carries it as
``failed`` / ``attempted`` and gates ``correct`` on it instead.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
SETUP_CODE = "import milnor_forge.cli as cli; cli.build_parser()"
# every child is killed once the whole run has taken this long
HARD_LIMIT_S = 170.0

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mb: float


def spawn(argv: list[str], env: dict[str, str], timeout: float) -> Child:
    """Run one process to its exit; time it and take its own rusage."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        proc.returncode,
        out.decode(errors="replace"),
        err[0].decode(errors="replace") if err else "",
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
    )


def control_loop_s() -> float:
    """Time of a fixed pure-Python loop: machine noise, not program noise."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return time.perf_counter() - start


def summary(values: list[float]) -> dict:
    if len(set(values)) == 1:  # exact counts keep their own value and type
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Clock:
    def __init__(self, seconds: float):
        self.started = time.perf_counter()
        self.deadline = self.started + seconds

    def running(self) -> bool:
        return time.perf_counter() < self.deadline

    def timeout(self) -> float:
        return max(1.0, HARD_LIMIT_S - (time.perf_counter() - self.started))


def setup_child(env: dict[str, str], clock: Clock) -> Child:
    child = spawn([sys.executable, "-c", SETUP_CODE], env, clock.timeout())
    if child.code != 0:
        raise SystemExit(f"run.py: importing milnor_forge failed:\n{child.stderr}")
    return child


def end_to_end(name: str, seed: int, seconds: float, checkout: Path):
    env = workloads.child_env(checkout)
    reference = workloads.load_reference(name)
    argv = [sys.executable, "-m", "milnor_forge", *workloads.verify_argv(name, seed)]
    clock = Clock(seconds)
    setup_child(env, clock)  # compiles bytecode; not timed
    series = {metric: [] for metric in E2E_UNITS}
    control, attempted, failed = [], 0, 0
    while not series["wall_s"] or clock.running():
        control.append(control_loop_s())
        series["setup_s"].append(setup_child(env, clock).wall_s)
        run = spawn(argv, env, clock.timeout())
        series["wall_s"].append(run.wall_s)
        series["cpu_s"].append(run.cpu_s)
        series["peak_rss_mb"].append(run.rss_mb)
        attempted += len(reference)
        bad = workloads.failed_records(reference, run.stdout, run.code)
        failed += bad
        if bad:
            print(f"run {len(series['wall_s'])}: {bad} records failed (exit {run.code})"
                  f"\n{run.stderr}", file=sys.stderr)
    table = {m: (E2E_UNITS[m], summary(v)) for m, v in series.items()}
    table["failed_frac"] = ("frac", summary([failed / attempted]))
    return table, attempted, failed, control, {}


def inproc_child(name: str, seed: int, traced: bool, env, clock: Clock) -> dict:
    argv = [sys.executable, str(HERE / "inproc.py"), name, str(seed), "1" if traced else "0"]
    child = spawn(argv, env, clock.timeout())
    try:
        return json.loads(child.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"run.py: in-process run failed (exit {child.code}):\n{child.stderr}")


def layers(name: str, seed: int, seconds: float, checkout: Path):
    env = workloads.child_env(checkout, threads="1")
    reference = workloads.load_reference(name)
    clock = Clock(seconds)
    setup_child(env, clock)  # compiles bytecode; not timed
    plain, traced, control = [], [], []
    attempted = failed = 0
    while len(traced) < 2 or clock.running():
        control.append(control_loop_s())
        # alternate which side runs first, so drift hits both alike
        for with_trace in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            out = inproc_child(name, seed, with_trace, env, clock)
            attempted += len(reference)
            failed += workloads.failed_records(reference, out["stdout"], out["exit"])
            (traced if with_trace else plain).append(out)

    def span(out, span_name, field):
        return out["spans"].get(span_name, {}).get(field, 0)

    repeat = counts_repeat(traced)
    if not repeat:
        print("call or work counts differ between traced runs", file=sys.stderr)
    table = {}
    for s in tracer.SPANS:
        table[f"{s}.calls"] = ("count", summary([span(t, s, "calls") for t in traced]))
        table[f"{s}.self_s"] = ("s", summary([span(t, s, "self_ns") / 1e9 for t in traced]))
    for c in tracer.COUNTS:
        table[c] = ("count", summary([t["counts"].get(c, 0) for t in traced]))
    root = [span(t, tracer.ROOT, "total_ns") for t in traced]
    table["cli.outside_checks_s"] = ("s", summary([
        (r - span(t, "report.run_check", "total_ns")) / 1e9 for t, r in zip(traced, root)
    ]))
    table["trace.attributed_frac"] = ("frac", summary([
        sum(v["self_ns"] for s, v in t["spans"].items() if s != tracer.ROOT) / r
        for t, r in zip(traced, root)
    ]))
    untraced = statistics.median([span(p, tracer.ROOT, "total_ns") for p in plain])
    table["trace.overhead_frac"] = ("frac", summary([statistics.median(root) / untraced - 1]))
    unreached = [s for s in tracer.SPANS if table[f"{s}.calls"][1]["median"] == 0]
    return table, attempted, failed, control, {"counts_repeat": repeat, "unreached": unreached}


def counts_repeat(traced: list[dict]) -> bool:
    """Whether every span's calls and every work count are alike in all runs."""
    def exact(out):
        return out["counts"], {s: v["calls"] for s, v in out["spans"].items()}

    return all(exact(t) == exact(traced[0]) for t in traced)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # turn SIGTERM into SystemExit, so spawn() kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    checkout = Path.cwd()
    if not (checkout / "src" / "milnor_forge" / "cli.py").is_file():
        raise SystemExit("run.py: run from the root of a milnor-forge checkout "
                         "(src/milnor_forge/cli.py not found)")
    measure = layers if args.trace else end_to_end
    table, attempted, failed, control, extra = measure(
        args.workload, args.seed, args.seconds, checkout
    )

    for metric, (unit, s) in table.items():
        print(f"{metric:<44} {s['median']:>14.6g} {unit:<5} "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "control_loop_s": summary(control),
        **extra,
        "metrics": {m: {"unit": unit, **s} for m, (unit, s) in table.items()},
    }
    print("detail: " + json.dumps(detail))
    reported = table.keys() - {"failed_frac"}
    print(json.dumps({
        "correct": failed == 0 and extra.get("counts_repeat", True),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": table[m][1]["median"], "unit": table[m][0]}
                    for m in table if m in reported},
    }))


if __name__ == "__main__":
    main()
