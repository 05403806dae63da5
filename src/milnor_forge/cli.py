"""Command-line verification harness.

Usage: ``verify <suite> [--primes P1,P2,...] [--scenario NAME]
[--sweep-scalars] [--dickson-cap N] [--format json|text] [--seed N]``.

Exit codes: 0 when every check passes (notes allowed), 1 when any check
fails, 2 on usage errors.  The (suite, prime) jobs run one after another in
the calling thread, so each record's ``elapsed_ms`` is its own check's time;
an exception raised by a suite outside its checks becomes one ``fail``
record ``<suite>.setup`` at that prime and the run carries on.  Records are
emitted in canonical (check_id, prime) order.  ``MILNOR_FORGE_THREADS``, if
set, must be an integer; it is reserved as the worker cap.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from dataclasses import dataclass

from . import cyclo, invariants, milnor, specseq
from .ffla import FieldMatrix, is_prime, nullspace, rref
from .galg import elementary_abelian_context, random_element
from .milnor import milnor_q
from .report import FAIL, PASS, CheckReport, run_check

SUITES = ("matrices", "milnor", "invariants", "ss")
DEFAULT_PRIMES = (2, 3, 5, 7)
DEFAULT_SEED = 20259
MATRIX_PRIME_CAP = 13
DICKSON_DEFAULT_CAP = 7


@dataclass
class RunConfig:
    primes: tuple[int, ...] = DEFAULT_PRIMES
    suites: tuple[str, ...] = SUITES
    scenario: str = "all"
    sweep_scalars: bool = False
    dickson_cap: int = DICKSON_DEFAULT_CAP
    fmt: str = "text"
    seed: int = DEFAULT_SEED


# ---------------------------------------------------------------------------
# suite runners


def _matrices_suite(prime: int, config: RunConfig) -> list[CheckReport]:
    reports: list[CheckReport] = []
    if prime == 2:
        reports.extend(cyclo.verify_l2_generators())
    elif prime <= MATRIX_PRIME_CAP:
        reports.extend(cyclo.verify_su_generators(prime))
        reports.extend(cyclo.verify_weyl_conjugation(prime))
        reports.extend(cyclo.verify_g1_relations(prime))
    if prime <= MATRIX_PRIME_CAP:
        reports.extend(cyclo.lemma_checks(prime))

    rng = random.Random(config.seed * 1000003 + prime)

    def rank_nullity() -> tuple[str, str]:
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

    reports.append(run_check("matrices.ffla.rank_nullity", prime, rank_nullity))
    return reports


def _milnor_suite(prime: int, config: RunConfig) -> list[CheckReport]:
    reports: list[CheckReport] = []
    if prime == 2:
        reports.extend(milnor.verify_q_expansion_two())
    else:
        reports.extend(milnor.verify_q_expansion_odd(prime))
        if prime <= config.dickson_cap:
            reports.extend(milnor.dickson_mui_check(prime))

    rng = random.Random(config.seed * 7919 + prime)
    ctx = elementary_abelian_context(prime, 3, 2 * prime + 6)
    q0, q1 = milnor_q(0, ctx), milnor_q(1, ctx)

    def squares() -> tuple[str, str]:
        for _ in range(25):
            el = random_element(ctx, rng, 4)
            if not q0(q0(el)).is_zero():
                return FAIL, f"Q0 Q0 != 0 on {el.render()}"
            if not q1(q1(el), truncate=True).is_zero():
                return FAIL, f"Q1 Q1 != 0 on {el.render()}"
        return PASS, "Q_j o Q_j = 0 on 25 seeded random elements, j in {0, 1}"

    def anticommute() -> tuple[str, str]:
        for _ in range(25):
            el = random_element(ctx, rng, 4)
            lhs = q0(q1(el, truncate=True), truncate=True)
            rhs = q1(q0(el), truncate=True)
            combined = lhs + rhs if prime != 2 else lhs - rhs
            if not combined.is_zero():
                return FAIL, f"Q0 Q1 + Q1 Q0 != 0 on {el.render()}"
        return PASS, "Q0 Q1 + Q1 Q0 = 0 on 25 seeded random elements"

    reports.append(run_check("milnor.q.squares", prime, squares))
    reports.append(run_check("milnor.q.anticommute", prime, anticommute))
    return reports


def _invariants_suite(prime: int, config: RunConfig) -> list[CheckReport]:
    reports: list[CheckReport] = []
    if prime == 2:
        reports.extend(invariants.verify_degree4_invariants_two())
    else:
        reports.extend(invariants.verify_degree4_invariants(prime))
    reports.extend(invariants.dickson_invariance(prime))
    if prime <= 5:
        reports.extend(invariants.group_closure_oracle(prime))

    rng = random.Random(config.seed * 31337 + prime)

    def q0_compat() -> tuple[str, str]:
        ctx = elementary_abelian_context(prime, 3, 8)
        q0 = milnor_q(0, ctx)
        gens = invariants.weyl_generators(prime).generators
        for _ in range(10):
            action = rng.choice(gens)
            f = invariants.induced_action(action, ctx)
            el = random_element(ctx, rng, 6)
            if f(q0(el)) != q0(f(el)):
                return FAIL, f"action {action.label} does not commute with Q0"
        return PASS, "induced actions commute with Q0 on 10 seeded random elements"

    reports.append(run_check("invariants.action.q0_compat", prime, q0_compat))
    return reports


def _ss_suite(prime: int, config: RunConfig) -> list[CheckReport]:
    reports: list[CheckReport] = []
    scenarios = specseq.JobScenarios(prime)  # shared by this job's checks only
    if config.scenario in ("all", "bg1"):
        reports.extend(specseq.check_bg1(prime, config.sweep_scalars, scenarios))
        reports.extend(specseq.check_engine_invariants(prime, scenarios))
    if config.scenario in ("all", "bpu") and prime != 2:
        reports.extend(specseq.check_bpu(prime, scenarios))
    if config.scenario == "all":
        reports.extend(specseq.iota_image_check(prime, scenarios))
    return reports


_SUITE_RUNNERS = {
    "matrices": _matrices_suite,
    "milnor": _milnor_suite,
    "invariants": _invariants_suite,
    "ss": _ss_suite,
}


# ---------------------------------------------------------------------------
# orchestration


def run(config: RunConfig) -> list[CheckReport]:
    env_cap = os.environ.get("MILNOR_FORGE_THREADS")
    if env_cap:
        try:
            int(env_cap)
        except ValueError:
            raise SystemExit(f"MILNOR_FORGE_THREADS is not an integer: {env_cap!r}")
    reports: list[CheckReport] = []
    for suite in config.suites:
        for prime in config.primes:
            start = time.perf_counter()
            try:
                reports.extend(_SUITE_RUNNERS[suite](prime, config))
            except Exception as exc:  # one job's setup error must not lose the others
                elapsed = int((time.perf_counter() - start) * 1000)
                details = f"{type(exc).__name__}: {exc}"
                reports.append(CheckReport(f"{suite}.setup", prime, FAIL, details, elapsed))
    reports.sort(key=lambda r: (r.check_id, r.prime))
    return reports


def report_json(reports: list[CheckReport]) -> str:
    return "".join(r.as_json() + "\n" for r in reports)


def report_text(reports: list[CheckReport]) -> str:
    if not reports:
        return ""
    width = max(len(r.check_id) for r in reports)
    lines = []
    for r in reports:
        lines.append(
            f"{r.status.upper():4} {r.check_id:<{width}} l={r.prime:<2} "
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
            f"Matrix suites accept primes up to {MATRIX_PRIME_CAP}; the rank-2 "
            f"modular-generator product check is capped at {DICKSON_DEFAULT_CAP} "
            "by default (raise with --dickson-cap). Suites run one after "
            "another in one thread; MILNOR_FORGE_THREADS, if set, must be an "
            "integer."
        ),
    )
    parser.add_argument("suite", choices=SUITES + ("all",), help="check suite to run")
    parser.add_argument(
        "--primes",
        default=",".join(str(p) for p in DEFAULT_PRIMES),
        help="comma-separated primes (default %(default)s)",
    )
    parser.add_argument(
        "--scenario", default="all", choices=("all", "bg1", "bpu"),
        help="restrict the ss suite to one scenario",
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
    return RunConfig(
        primes=primes,
        suites=suites,
        scenario=args.scenario,
        sweep_scalars=args.sweep_scalars,
        dickson_cap=args.dickson_cap,
        fmt=args.fmt,
        seed=args.seed,
    )


def main(argv: list[str] | None = None) -> int:
    config = parse_config(argv)
    reports = run(config)
    out = report_json(reports) if config.fmt == "json" else report_text(reports)
    sys.stdout.write(out)
    return 0 if not any(r.failed for r in reports) else 1
