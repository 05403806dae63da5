"""Check records shared by the verification suites and the CLI."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable

PASS = "pass"
FAIL = "fail"
NOTE = "note"


@dataclass
class CheckReport:
    """One verification outcome.

    ``check_id`` values are a stable external contract; ``status`` is one of
    ``pass``/``fail``/``note``.  ``note`` is reserved for documented source
    discrepancies and external-input annotations, never for failures.
    """

    check_id: str
    prime: int
    status: str
    details: str
    elapsed_ms: int

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
