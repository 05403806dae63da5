"""Repeat the benchmark over seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py [--first-seed 1] [--out FILE]

Runs ``run.py`` ten times per workload of ``BENCHMARK.json``, with seeds
``--first-seed`` onwards and its ``run_seconds``, then two traced runs.  For
each end-to-end metric it prints the median of the ten runs and the spread
(third minus first quartile, as ``statistics.quantiles(values, n=4)`` gives
them) as a share of the median, next to the metric's bound, and flags a
spread over the bound.  ``--out`` writes every run's result line and details
as JSON.  It exits non-zero when a spread is over its bound or a run is not
correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import summary

HERE = Path(__file__).resolve().parent
RUNS = 10
TRACE_RUNS = 2


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    detail = next(json.loads(l[len("detail: "):]) for l in lines if l.startswith("detail: "))
    return {"seed": seed, "result": json.loads(lines[-1]), "detail": detail}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for name in (w["name"] for w in bench["workloads"]):
        runs = [one_run(name, args.first_seed + i, bench["run_seconds"], 0) for i in range(RUNS)]
        traces = [one_run(name, args.first_seed + i, bench["run_seconds"], 1)
                  for i in range(TRACE_RUNS)]
        stats = {}
        for metric, spec in metrics.items():
            s = summary([r["result"]["metrics"][metric]["value"] for r in runs])
            s["spread"] = (s["q3"] - s["q1"]) / s["median"]
            stats[metric] = s
            line = (f"{name:<13} {metric:<12} median {s['median']:.6g} {spec['unit']:<3} "
                    f"spread {s['spread']:.4f} bound {spec['bound']} n {s['n']}")
            if s["spread"] > spec["bound"]:
                ok, line = False, line + "  SPREAD OVER BOUND"
            print(line, flush=True)
        incorrect = sum(1 for r in runs + traces if not r["result"]["correct"])
        print(f"{name:<13} runs {len(runs)} traced {len(traces)} incorrect {incorrect}", flush=True)
        ok = ok and incorrect == 0
        report["workloads"][name] = {"summary": stats, "runs": runs, "traces": traces}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
