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
entries whose predicate holds.  The ``verify`` process (``script``, also
behind ``python -m milnor_forge``) runs the jobs on one worker process per
available CPU: each forked worker sends the records of all its jobs back in
one message once the job queue is empty, and takes no job once the
``verify`` process is gone; the jobs that run the closure oracle are queued
first, largest prime first, and the rest in plan order.  Once the records
are written, the ``verify`` process freezes its heap, so that its shutdown
does not walk every object again.  Library calls of ``run`` and ``main`` run the
jobs one after another in the calling thread.  Each check runs inside
``run_check`` in the process that runs its job, so its ``elapsed_ms`` is its
own time there, including everything it builds, and an exception becomes
that check's own ``fail`` record.  What several checks of one job use is
built by the first of them and kept in the job's memo (``Job.shared``) until
the job ends.  Records are emitted in canonical (check_id, prime) order.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

from . import cyclo, ffla, invariants, milnor, specseq
from .ffla import is_prime, nullspace, rref
from .report import Check, CheckReport, Job, run_check

# ``nullspace`` and ``rref`` are re-exported: perfbench's tracer tests check
# that its patch reaches names another module imported by value, here
__all__ = [
    "SUITES", "DEFAULT_PRIMES", "DEFAULT_SEED", "DICKSON_DEFAULT_CAP", "RunConfig",
    "REGISTRY", "plan", "run_job", "run", "run_forked", "report_json", "report_text",
    "build_parser", "parse_config", "main", "available_workers", "script",
    "nullspace", "rref",
]

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


# suite -> its checks, in the order a job runs them
REGISTRY: dict[str, tuple[Check, ...]] = {
    "matrices": cyclo.CHECKS + ffla.CHECKS,
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


def run_job(prime: int, checks: list[Check], config: RunConfig) -> list[CheckReport]:
    job = Job(prime, config)  # shared by this job's checks only
    return [run_check(c.check_id, prime, partial(c.body, job)) for c in checks]


def run(config: RunConfig, workers: int = 1) -> list[CheckReport]:
    """Every record of the run, sorted.  With ``workers`` > 1 the jobs are
    shared with forked worker processes (see ``run_forked``); any job whose
    records did not come back from them runs here, in plan order."""
    jobs = plan(config)
    workers = min(workers, len(jobs))
    done = run_forked(jobs, config, workers) if workers > 1 else {}
    reports: list[CheckReport] = []
    for index, (prime, checks) in enumerate(jobs):
        reports.extend(done[index] if index in done else run_job(prime, checks, config))
    reports.sort(key=lambda r: (r.check_id, r.prime))
    return reports


def run_forked(
    jobs: list[tuple[int, list[Check]]], config: RunConfig, workers: int
) -> dict[int, list[CheckReport]]:
    """Run ``jobs`` on this process and ``workers`` - 1 forked children; the
    records of each job that finished, by its index.

    Every process takes job indices from one queue, a pipe filled before
    the first fork.  The jobs that run the closure oracle (the checks whose
    predicate is ``invariants.enumerable``) go in first, largest prime
    first: each enumerates a group of l^2 (l^3 - l) elements, and at l = 5
    that job is the longest of a default run.  Every other job follows in
    plan order.  A child keeps its records until the queue is empty,
    then sends them all on its own pipe as one length-prefixed ``marshal``
    message and leaves by ``os._exit``: it never returns into the caller's
    stack and never flushes stdio buffers it inherited.  This process runs
    jobs too, then reads each child's pipe to end of file, one child after
    another.  A child holds no read end of a result pipe and takes no job
    once this process is gone, so an orphaned child stops: its write fails
    on the pipe no one reads.  Every child is reaped before this returns,
    and killed first if this process raises.  The jobs of a child whose
    message is missing or cut short (it died) are not in the result, and
    neither is a job the queue had no room for.  Forking is safe only in a
    process with one thread, such as the ``verify`` process.
    """
    import gc
    import marshal
    import select
    import signal

    closure = sorted(
        (i for i, (_, checks) in enumerate(jobs)
         if any(c.runs_at is invariants.enumerable for c in checks)),
        key=lambda i: -jobs[i][0],
    )
    order = closure + [i for i in range(len(jobs)) if i not in closure]
    queue, feed = os.pipe()
    os.set_blocking(feed, False)
    indices = b"".join(i.to_bytes(4, "little") for i in order)
    try:
        for start in range(0, len(indices), select.PIPE_BUF):
            # at most PIPE_BUF bytes: the write takes all of them or none
            os.write(feed, indices[start:start + select.PIPE_BUF])
    except BlockingIOError:
        pass  # the jobs left out run after the workers are done
    os.close(feed)

    def taken():
        while len(index := os.read(queue, 4)) == 4:
            yield int.from_bytes(index, "little")

    done: dict[int, list[CheckReport]] = {}
    children: dict[int, int] = {}  # a child's pid -> the read end of its result pipe
    parent = os.getpid()
    # objects that exist now are left out of garbage collection until the
    # workers are done: a collection would write to every one of them, and
    # each page written after the fork is copied
    gc.freeze()
    try:
        for _ in range(workers - 1):
            fd, out = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no more processes: run with the workers there are
                os.close(fd)
                os.close(out)
                break
            if pid == 0:
                try:
                    # with no read end left here, a write fails once this
                    # process's parent, the one reader, is gone
                    for read_end in (fd, *children.values()):
                        os.close(read_end)
                    kept = []
                    for index in taken():
                        if os.getppid() != parent:
                            break  # orphaned: no one is left to read the records
                        kept.append((index, [
                            (r.check_id, r.prime, r.status, r.details, r.elapsed_ms)
                            for r in run_job(*jobs[index], config)
                        ]))
                    message = marshal.dumps(kept)
                    data = memoryview(len(message).to_bytes(4, "little") + message)
                    while data:
                        data = data[os.write(out, data):]
                finally:
                    os._exit(0)
            children[pid] = fd
            os.close(out)
        for index in taken():
            done[index] = run_job(*jobs[index], config)
        messages = [b"".join(iter(partial(os.read, fd, 1 << 16), b""))
                    for fd in children.values()]
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, fd in children.items():
            os.waitpid(pid, 0)
            os.close(fd)
        os.close(queue)
        gc.unfreeze()
    for data in messages:
        # a length other than the prefix's: its child died before it sent all
        if int.from_bytes(data[:4], "little") == len(data) - 4:
            for index, records in marshal.loads(data[4:]):
                done[index] = [CheckReport(*record) for record in records]
    return done


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
            "The (suite, prime) jobs run on one worker process per available CPU; "
            "elapsed_ms is each check's own time in the process that ran it."
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


def main(argv: list[str] | None = None, workers: int = 1) -> int:
    config = parse_config(argv)
    reports = run(config, workers)
    out = report_json(reports) if config.fmt == "json" else report_text(reports)
    sys.stdout.write(out)
    return 0 if not any(r.failed for r in reports) else 1


def available_workers() -> int:
    """One worker per CPU this process may run on; 1 where ``os.fork`` does
    not exist."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def script() -> int:
    """The ``verify`` process: ``main`` on one worker per available CPU.

    Once ``main`` returns, the heap is frozen (``gc.freeze``), so that the
    interpreter's shutdown does not walk every object for one more
    collection.  The process still exits the usual way, so atexit handlers
    and a profiler's report run."""
    import gc

    code = main(workers=available_workers())
    gc.freeze()
    return code
