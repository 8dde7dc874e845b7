"""Per-tenant SLO accounting: latency percentiles, goodput, shed rate.

The tracker is fed by the gateway at offer/shed/complete time and keeps
two views of the same stream:

- a **streaming** p99 estimate
  (:class:`~repro.telemetry.quantiles.StreamingQuantile`, O(1) memory,
  deterministic) -- what the autoscaler reads every control period, and
- the **exact** sample for the final report
  (:func:`~repro.telemetry.quantiles.latency_summary`), so the canonical
  JSON the CI diffs never depends on estimator drift.

Goodput is the rate of requests completed *within their tenant's SLO
target* -- a completion that blew the deadline counts toward throughput
but not goodput.  :meth:`SLOTracker.observe` adapts structured
``serve.*`` telemetry events into the same counters, so a tracker can be
rebuilt from an exported event log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.serving.requests import Request
from repro.telemetry.quantiles import StreamingQuantile, latency_summary


@dataclass
class TenantSLO:
    """One tenant's live serving state."""

    name: str
    slo_ns: float
    offered: int = 0
    admitted: int = 0
    shed: Dict[str, int] = field(default_factory=dict)
    completed: int = 0
    completed_within_slo: int = 0
    latencies_ns: List[float] = field(default_factory=list)
    p99: StreamingQuantile = field(default_factory=lambda: StreamingQuantile(0.99))

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    @property
    def shed_rate(self) -> float:
        return self.shed_total / self.offered if self.offered else 0.0

    @property
    def outstanding(self) -> int:
        return self.admitted - self.completed

    def note_completed(self, latency_ns: float) -> None:
        self.completed += 1
        self.latencies_ns.append(latency_ns)
        self.p99.record(latency_ns)
        if latency_ns <= self.slo_ns:
            self.completed_within_slo += 1

    def summary(self, horizon_ns: float) -> Dict[str, Any]:
        horizon_s = horizon_ns / 1e9 if horizon_ns > 0 else 0.0
        return {
            "slo_ns": self.slo_ns,
            "offered": self.offered,
            "admitted": self.admitted,
            "shed": dict(sorted(self.shed.items())),
            "shed_rate": self.shed_rate,
            "completed": self.completed,
            "latency_ns": latency_summary(self.latencies_ns),
            "throughput_rps": self.completed / horizon_s if horizon_s else 0.0,
            "goodput_rps": (
                self.completed_within_slo / horizon_s if horizon_s else 0.0
            ),
            "slo_attainment": (
                self.completed_within_slo / self.completed if self.completed else 1.0
            ),
        }


class SLOTracker:
    """Machine-wide per-tenant SLO state the autoscaler and report read."""

    def __init__(self) -> None:
        self._tenants: Dict[str, TenantSLO] = {}

    def configure_tenant(self, name: str, slo_ns: float) -> TenantSLO:
        state = TenantSLO(name=name, slo_ns=slo_ns)
        self._tenants[name] = state
        return state

    def tenant(self, name: str) -> TenantSLO:
        if name not in self._tenants:
            # unconfigured tenants get an effectively-unbounded SLO
            self._tenants[name] = TenantSLO(name=name, slo_ns=float("inf"))
        return self._tenants[name]

    def tenants(self) -> List[TenantSLO]:
        return [self._tenants[k] for k in sorted(self._tenants)]

    # ------------------------------------------------------------------
    # gateway-side hooks
    # ------------------------------------------------------------------
    def note_offered(self, request: Request) -> None:
        self.tenant(request.tenant).offered += 1

    def note_shed(self, request: Request, reason: str) -> None:
        t = self.tenant(request.tenant)
        t.shed[reason] = t.shed.get(reason, 0) + 1

    def note_admitted(self, request: Request) -> None:
        self.tenant(request.tenant).admitted += 1

    def note_completed(self, request: Request) -> None:
        self.tenant(request.tenant).note_completed(request.latency_ns)

    # ------------------------------------------------------------------
    # telemetry-event adapter
    # ------------------------------------------------------------------
    def observe(self, event) -> None:
        """Fold one structured ``serve.*`` telemetry event in.

        Accepts :class:`~repro.telemetry.events.TelemetryEvent` (or any
        object with ``kind`` and ``attrs``); lets a tracker be rebuilt
        offline from an exported event log.
        """
        kind, attrs = event.kind, event.attrs
        if kind == "serve.request":
            self.tenant(attrs["tenant"]).offered += 1
        elif kind == "serve.shed":
            t = self.tenant(attrs["tenant"])
            t.shed[attrs["reason"]] = t.shed.get(attrs["reason"], 0) + 1
        elif kind == "serve.admit":
            self.tenant(attrs["tenant"]).admitted += 1
        elif kind == "serve.complete":
            self.tenant(attrs["tenant"]).note_completed(attrs["latency_ns"])

    # ------------------------------------------------------------------
    def summary(self, horizon_ns: float) -> Dict[str, Any]:
        return {t.name: t.summary(horizon_ns) for t in self.tenants()}
