"""Operation recording, statistics and digests shared by the workloads."""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from contextlib import nullcontext

from varword.errors import NoPartSelected, NotFoundWithinHorizon

# bounded searches end in one of these when they honestly exhaust the horizon
NOT_FOUND = (NotFoundWithinHorizon, NoPartSelected)


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj)).hexdigest()


def quantile(values, q: float) -> float:
    """The order statistic nearest to quantile q (0 for an empty list)."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[min(len(s) - 1, max(0, round(q * (len(s) - 1))))]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


class CheckFailed(Exception):
    """An operation's output disagreed with the benchmark's expectation."""


def need(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


class Pass:
    """One pass over a workload's fixed battery or mix.

    ``op`` times one operation, then checks its outcome outside the
    timed region.  The outcome is ``("ok", value)`` or ``("not-found",
    exception)``; any other exception, or a check that raises, counts
    the operation as failed.  Every outcome's canonical record feeds the
    pass's output digest.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops: list[tuple[str, float]] = []
        self.failed = 0
        self.errors: list[str] = []
        self._out = hashlib.sha256()

    def op(self, kind: str, fn, check):
        span = self.tracer.span(f"bench.{kind}") if self.tracer else nullcontext()
        with span:
            t0 = time.perf_counter()
            try:
                outcome = ("ok", fn())
            except NOT_FOUND as exc:
                outcome = ("not-found", exc)
            except Exception as exc:  # a crash is a failed operation, not a dead run
                outcome = ("crash", exc)
            dt = time.perf_counter() - t0
        self.ops.append((kind, dt))
        try:
            need(outcome[0] != "crash", f"{type(outcome[1]).__name__}: {outcome[1]}")
            record = check(*outcome)
        except Exception as exc:  # a wrong or malformed output fails the operation, not the run
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            record = ["failed", kind]
        self._out.update(canonical([kind, record]))
        return outcome

    @property
    def wall_s(self) -> float:
        return sum(dt for _, dt in self.ops)

    def times(self, kind: str) -> list[float]:
        return [dt for k, dt in self.ops if k == kind]

    @property
    def digest(self) -> str:
        return self._out.hexdigest()
