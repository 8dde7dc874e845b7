"""Admission control: bounded backlogs, token buckets, shed verdicts.

The gateway asks the :class:`AdmissionController` for a verdict before a
request touches the batcher.  Two independent gates, per tenant:

- a **token bucket** (``admit_rate_rps`` refill, ``admit_burst`` depth)
  caps the tenant's sustained admitted rate while absorbing short
  bursts, and
- a **bounded backlog**: a tenant with ``max_backlog`` requests already
  admitted-but-incomplete is shed outright -- queueing more work onto an
  overloaded machine only converts latency SLO misses into timeouts.

Shedding is a *verdict*, not an exception: the gateway records the shed
and the arrival stream continues (open-loop traffic does not retry).
"""

from __future__ import annotations

from typing import Dict, NamedTuple

from repro.serving.requests import Request

#: verdict reasons
OK = "ok"
RATE_LIMIT = "rate-limit"
QUEUE_FULL = "queue-full"


class AdmissionVerdict(NamedTuple):
    """One request's admission verdict (an immutable named tuple: one is
    built per offered request)."""

    accepted: bool
    reason: str                  # OK | RATE_LIMIT | QUEUE_FULL
    tokens_left: float = 0.0
    backlog: int = 0


class TokenBucket:
    """A deterministic continuous-refill token bucket (sim-clocked)."""

    def __init__(self, rate_rps: float, burst: float) -> None:
        if rate_rps <= 0 or burst < 1:
            raise ValueError("token bucket needs rate_rps > 0 and burst >= 1")
        self.rate_per_ns = rate_rps / 1e9
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last_ns = 0.0

    def try_take(self, now_ns: float) -> bool:
        self.tokens = min(
            self.burst, self.tokens + (now_ns - self._last_ns) * self.rate_per_ns
        )
        self._last_ns = now_ns
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class AdmissionController:
    """Per-tenant token buckets + backlog bounds issuing shed verdicts."""

    def __init__(self, max_backlog: int = 64) -> None:
        if max_backlog < 1:
            raise ValueError("max_backlog must be >= 1")
        self.max_backlog = max_backlog
        self._buckets: Dict[str, TokenBucket] = {}
        self.verdicts: Dict[str, int] = {OK: 0, RATE_LIMIT: 0, QUEUE_FULL: 0}

    def configure_tenant(
        self, tenant: str, admit_rate_rps: float, admit_burst: float
    ) -> None:
        self._buckets[tenant] = TokenBucket(admit_rate_rps, admit_burst)

    def admit(
        self, request: Request, now_ns: float, backlog: int
    ) -> AdmissionVerdict:
        """Judge one request given the tenant's current backlog depth."""
        bucket = self._buckets.get(request.tenant)
        if backlog >= self.max_backlog:
            self.verdicts[QUEUE_FULL] += 1
            return AdmissionVerdict(
                False, QUEUE_FULL,
                tokens_left=bucket.tokens if bucket else 0.0,
                backlog=backlog,
            )
        if bucket is not None and not bucket.try_take(now_ns):
            self.verdicts[RATE_LIMIT] += 1
            return AdmissionVerdict(
                False, RATE_LIMIT, tokens_left=bucket.tokens, backlog=backlog
            )
        self.verdicts[OK] += 1
        return AdmissionVerdict(
            True, OK,
            tokens_left=bucket.tokens if bucket else 0.0,
            backlog=backlog,
        )
