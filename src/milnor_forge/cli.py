"""Command-line verification harness.

Usage: ``verify <suite> [--primes P1,P2,...] [--sweep-scalars]
[--dickson-cap N] [--format json|text] [--seed N]``.

Exit codes: 0 when every check passes (notes allowed), 1 when any check
fails, 2 on usage errors.  A run that would plan no check at any of the
primes exits 2 too, since an empty record stream would read as a clean
pass.  ``REGISTRY`` holds every check of every suite as
a ``report.Check`` entry, kept by the module the check belongs to; an
entry's predicate alone decides at which primes, and under which options,
its check runs.  A run plans one job per (suite, prime) pair with the
entries whose predicate holds, and runs the jobs one after another in the
calling thread.  Each check runs inside ``run_check``, so its ``elapsed_ms``
includes everything it builds, and an exception becomes that check's own
``fail`` record.  What several checks of one job use is built by the first
of them and kept in the job's memo (``Job.shared``) until the job ends.
Records are emitted in canonical (check_id, prime) order.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from . import cyclo, invariants, milnor, specseq
from .ffla import FieldMatrix, is_prime, nullspace, rref
from .report import FAIL, PASS, Check, CheckReport, Job, always, run_check

SUITES = ("matrices", "milnor", "invariants", "ss")
DEFAULT_PRIMES = (2, 3, 5, 7)
DEFAULT_SEED = 20259
DICKSON_DEFAULT_CAP = 7


class RunConfig:
    __slots__ = ("primes", "suites", "sweep_scalars", "dickson_cap", "fmt", "seed")

    def __init__(
        self,
        primes: tuple[int, ...] = DEFAULT_PRIMES,
        suites: tuple[str, ...] = SUITES,
        sweep_scalars: bool = False,
        dickson_cap: int = DICKSON_DEFAULT_CAP,
        fmt: str = "text",
        seed: int = DEFAULT_SEED,
    ):
        self.primes = primes
        self.suites = suites
        self.sweep_scalars = sweep_scalars
        self.dickson_cap = dickson_cap
        self.fmt = fmt
        self.seed = seed


def rank_nullity(job: Job) -> tuple[str, str]:
    prime = job.prime
    rng = job.rng(1000003)
    for _ in range(20):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = FieldMatrix(
            [[rng.randrange(prime) for _ in range(cols)] for _ in range(rows)],
            prime,
        )
        rank, reduced = rref(m)
        kernel = nullspace(m)
        if rank + len(kernel) != cols:
            return FAIL, f"rank {rank} + nullity {len(kernel)} != {cols}"
        if reduced.rank() != rank:
            return FAIL, "rref changed the rank"
        for v in kernel:
            if any(m.apply(v)):
                return FAIL, "nullspace vector not annihilated"
    return PASS, "rank-nullity and exact kernels on 20 seeded random matrices"


# suite -> its checks, in the order a job runs them
REGISTRY: dict[str, tuple[Check, ...]] = {
    "matrices": cyclo.CHECKS + (Check("matrices.ffla.rank_nullity", always, rank_nullity),),
    "milnor": milnor.CHECKS,
    "invariants": invariants.CHECKS,
    "ss": specseq.CHECKS,
}


def plan(config: RunConfig) -> list[tuple[int, list[Check]]]:
    """Every (suite, prime) job of a run, as its prime and the checks it runs."""
    return [
        (prime, [c for c in REGISTRY[suite] if c.runs_at(prime, config)])
        for suite in config.suites
        for prime in config.primes
    ]


def run(config: RunConfig) -> list[CheckReport]:
    reports: list[CheckReport] = []
    for prime, checks in plan(config):
        job = Job(prime, config)  # shared by this job's checks only
        for check in checks:
            reports.append(run_check(check.check_id, prime, partial(check.body, job)))
    reports.sort(key=lambda r: (r.check_id, r.prime))
    return reports


def report_json(reports: list[CheckReport]) -> str:
    return "".join(r.as_json() + "\n" for r in reports)


def report_text(reports: list[CheckReport]) -> str:
    if not reports:
        return ""
    width = max(len(r.check_id) for r in reports)
    prime_width = max(2, len(str(max(r.prime for r in reports))))
    lines = []
    for r in reports:
        lines.append(
            f"{r.status.upper():4} {r.check_id:<{width}} l={r.prime:<{prime_width}} "
            f"{r.elapsed_ms:>5}ms  {r.details}"
        )
    counts = {s: sum(1 for r in reports if r.status == s) for s in ("pass", "fail", "note")}
    lines.append(
        f"---- {counts['pass']} pass, {counts['fail']} fail, {counts['note']} note"
    )
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description=(
            "Run the exact verification suites: unitary generator matrices over "
            "cyclotomic integers, Milnor primitive expansions, modular invariant "
            "subspaces, and spectral-sequence scenarios."
        ),
        epilog=(
            f"Default primes: {','.join(str(p) for p in DEFAULT_PRIMES)}. "
            "The rank-2 modular-generator product check is capped at "
            f"{DICKSON_DEFAULT_CAP} by default (raise with --dickson-cap). "
            "Suites run one after another in one thread."
        ),
    )
    parser.add_argument("suite", choices=SUITES + ("all",), help="check suite to run")
    parser.add_argument(
        "--primes",
        default=",".join(str(p) for p in DEFAULT_PRIMES),
        help="comma-separated primes (default %(default)s)",
    )
    parser.add_argument(
        "--sweep-scalars", action="store_true",
        help="sweep all nonzero transgression scalars (default: prime 3 only)",
    )
    parser.add_argument(
        "--dickson-cap", type=int, default=DICKSON_DEFAULT_CAP,
        help="largest prime for the rank-2 modular-generator product check",
    )
    parser.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="seed for the sampled randomized checks",
    )
    return parser


def parse_config(argv: list[str] | None = None) -> RunConfig:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a repeated prime is run once: one record per (check, prime)
        primes = tuple(dict.fromkeys(int(tok) for tok in args.primes.split(",") if tok.strip()))
    except ValueError:
        parser.error(f"--primes must be a comma-separated integer list: {args.primes!r}")
    if not primes:
        parser.error("--primes must name at least one prime")
    for p in primes:
        if not is_prime(p):
            parser.error(f"{p} is not prime")
    suites = SUITES if args.suite == "all" else (args.suite,)
    config = RunConfig(
        primes=primes,
        suites=suites,
        sweep_scalars=args.sweep_scalars,
        dickson_cap=args.dickson_cap,
        fmt=args.fmt,
        seed=args.seed,
    )
    if not any(checks for _, checks in plan(config)):
        # an empty record stream would read as a clean pass
        sweep = " --sweep-scalars" if args.sweep_scalars else ""
        parser.error(
            f"suite {args.suite} plans no check at primes {','.join(map(str, primes))} "
            f"with --dickson-cap {args.dickson_cap}{sweep}"
        )
    return config


def main(argv: list[str] | None = None) -> int:
    config = parse_config(argv)
    reports = run(config)
    out = report_json(reports) if config.fmt == "json" else report_text(reports)
    sys.stdout.write(out)
    return 0 if not any(r.failed for r in reports) else 1
