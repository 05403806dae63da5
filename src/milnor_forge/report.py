"""Check records, registry entries and per-job state shared by the suites and the CLI."""

from __future__ import annotations

import json
import random
import time
from typing import Any, Callable, Hashable

PASS = "pass"
FAIL = "fail"
NOTE = "note"


class CheckReport:
    """One verification outcome.

    ``check_id`` values are a stable external contract; ``status`` is one of
    ``pass``/``fail``/``note``.  ``note`` is reserved for documented source
    discrepancies and external-input annotations, never for failures.
    """

    __slots__ = ("check_id", "prime", "status", "details", "elapsed_ms")

    def __init__(self, check_id: str, prime: int, status: str, details: str, elapsed_ms: int):
        self.check_id = check_id
        self.prime = prime
        self.status = status
        self.details = details
        self.elapsed_ms = elapsed_ms

    @property
    def failed(self) -> bool:
        return self.status == FAIL

    def as_json(self) -> str:
        record = {
            "check_id": self.check_id,
            "prime": self.prime,
            "status": self.status,
            "details": self.details,
            "elapsed_ms": self.elapsed_ms,
        }
        return json.dumps(record, ensure_ascii=False)


def run_check(check_id: str, prime: int, fn: Callable[[], tuple[str, str]]) -> CheckReport:
    """Execute ``fn() -> (status, details)``, catching errors into a fail record."""
    start = time.perf_counter()
    try:
        status, details = fn()
    except Exception as exc:  # surfaced in the report, never swallowed silently
        status, details = FAIL, f"{type(exc).__name__}: {exc}"
    elapsed = int((time.perf_counter() - start) * 1000)
    return CheckReport(check_id, prime, status, details, elapsed)


class Job:
    """One (suite, prime) pair of a run: its prime, its config and the values
    its checks share.

    ``shared(key, build)`` returns ``build()``, made by the first check that
    asks for it and kept for as long as the job lives.  A build that raises
    is not kept, so every check that needs it builds again and records its
    own failure.  Nothing outlives the job.
    """

    def __init__(self, prime: int, config: Any):
        self.prime = prime
        self.config = config
        self._shared: dict[Hashable, Any] = {}

    def shared(self, key: Hashable, build: Callable[[], Any]) -> Any:
        if key not in self._shared:
            self._shared[key] = build()
        return self._shared[key]

    def rng(self, multiplier: int) -> random.Random:
        """The job's seeded stream ``Random(seed * multiplier + prime)``: the
        sampled checks of one job draw from it in plan order."""
        return self.shared(
            ("rng", multiplier), lambda: random.Random(self.config.seed * multiplier + self.prime)
        )


class Check:
    """A registry entry: check ``body(job) -> (status, details)`` runs at the
    primes where ``runs_at(prime, config)`` holds.  One check id may have one
    entry per characteristic, as long as at most one of them runs at a prime."""

    __slots__ = ("check_id", "runs_at", "body")

    def __init__(
        self,
        check_id: str,
        runs_at: Callable[[int, Any], bool],
        body: Callable[[Job], tuple[str, str]],
    ):
        self.check_id = check_id
        self.runs_at = runs_at
        self.body = body


def always(prime: int, config: Any) -> bool:
    return True


def at_two(prime: int, config: Any) -> bool:
    return prime == 2


def odd(prime: int, config: Any) -> bool:
    return prime != 2


def note(details: str) -> Callable[[Job], tuple[str, str]]:
    """The body of a check that records a fixed ``note``."""
    return lambda job: (NOTE, details)
