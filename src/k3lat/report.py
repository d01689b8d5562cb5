"""Verification entries and the one runner of named checks.

An entry is a dict with keys check/status/detail/witness; status "pass",
"fail" or "discrepancy" (a customary wording that direct arithmetic
corrects).  A suite is a list of checks: (name, fn) pairs, fn taking no
arguments and returning that check's entries.  Checks that share a
computed object get it from an lru_cache builder.
"""

from __future__ import annotations

import time
from math import gcd
from typing import Callable, Iterable

Check = tuple[str, Callable[[], list[dict]]]


def entry(check: str, status: str, detail: str, witness=None) -> dict:
    return {"check": check, "status": status, "detail": detail, "witness": witness}


def check(name: str, ok: bool, detail_pass: str, detail_fail: str, witness=None) -> dict:
    return entry(name, "pass" if ok else "fail", detail_pass if ok else detail_fail, witness)


def ratio(num: int, den: int) -> str:
    """num/den (den > 0) in lowest terms: "p/q", or "p" when den divides num."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}" if den != g else str(num // g)


def run(checks: Iterable[Check]) -> list[tuple[dict, float]]:
    """Every entry of the checks with its check's seconds (0 after the first
    entry).  Each check runs in its own try: one that raises becomes a fail
    entry under its name, with detail "<ExcType>: <msg>" and the traceback
    on stderr, and the next check runs."""
    out = []
    for name, fn in checks:
        t0 = time.perf_counter()
        try:
            entries = fn()
        except Exception as exc:
            import traceback  # only a failing check pays for the import

            traceback.print_exc()
            entries = [entry(name, "fail", f"{type(exc).__name__}: {exc}")]
        seconds = time.perf_counter() - t0
        out.extend((e, seconds if i == 0 else 0.0) for i, e in enumerate(entries))
    return out
