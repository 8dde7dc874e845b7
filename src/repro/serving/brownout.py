"""Degraded-mode serving: brownout while the machine restores.

When a failure domain goes down and a checkpoint restore is in flight,
the gateway cannot pretend capacity is intact.  Brownout is the explicit
degraded state for that window:

- requests from tenants **below the priority floor** are shed outright
  (lowest-priority traffic first -- the interactive tier keeps its
  capacity while batch waits out the outage),
- batch deadlines **stretch** by ``deadline_stretch`` so the batcher
  coalesces harder and the shrunken machine sees fewer, fuller batches,
- ``serving.degraded`` enter/exit events land on telemetry and on the
  report's ``degraded`` timeline, and registered listeners (the
  autoscaler, the burn-rate alerter) observe every transition.

The controller is a depth-counted latch: overlapping domain outages nest
(two concurrent outages = one brownout that exits when the *last* one
heals).  A gateway without a :class:`BrownoutPolicy` has no controller
at all, so disabled-mode serving reports stay byte-identical to seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

#: the shed-verdict reason brownout stamps on dropped requests
BROWNOUT = "brownout"


@dataclass(frozen=True)
class BrownoutPolicy:
    """Knobs of degraded-mode serving."""

    priority_floor: int = 2        # shed tenants with priority < floor
    deadline_stretch: float = 2.0  # batch max-wait multiplier while degraded

    def __post_init__(self) -> None:
        if self.priority_floor < 1:
            raise ValueError("priority floor must be >= 1")
        if self.deadline_stretch < 1.0:
            raise ValueError("deadline stretch must be >= 1")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "priority_floor": self.priority_floor,
            "deadline_stretch": self.deadline_stretch,
        }


class BrownoutController:
    """The gateway's degraded-state latch + timeline."""

    def __init__(
        self,
        policy: BrownoutPolicy,
        sim,
        telemetry=None,
        component: str = "serve.brownout",
    ) -> None:
        self.policy = policy
        self.sim = sim
        self.telemetry = telemetry
        self._emit = (
            self.telemetry.emitter("serving.degraded", component)
            if self.telemetry is not None
            else None
        )
        self.active = False
        self.reason: Optional[str] = None
        self.entries = 0
        self.shed = 0
        self.degraded_ns = 0.0
        self.timeline: List[Dict[str, Any]] = []
        self._depth = 0
        self._entered_at: Optional[float] = None
        # transition observers: called with (active, reason, ts).  The
        # gateway registers the alerter here; anything polling
        # ``active`` directly (the autoscaler) needs no listener.
        self.listeners: List[Callable[[bool, Optional[str], float], None]] = []

    # ------------------------------------------------------------------
    def enter(self, reason: str) -> None:
        """One outage began.  Nested enters deepen the latch."""
        self._depth += 1
        if self._depth > 1:
            return
        now = self.sim.now
        self.active = True
        self.reason = reason
        self.entries += 1
        self._entered_at = now
        self.timeline.append({"ts": now, "event": "enter", "reason": reason})
        if self._emit is not None:
            self._emit(event="enter", reason=reason)
        for listener in self.listeners:
            listener(True, reason, now)

    def exit(self) -> None:
        """One outage healed; the brownout lifts when the last one does."""
        if self._depth == 0:
            return
        self._depth -= 1
        if self._depth > 0:
            return
        now = self.sim.now
        reason = self.reason
        self.active = False
        self.reason = None
        if self._entered_at is not None:
            self.degraded_ns += now - self._entered_at
            self._entered_at = None
        self.timeline.append({"ts": now, "event": "exit", "reason": reason})
        if self._emit is not None:
            self._emit(event="exit", reason=reason)
        for listener in self.listeners:
            listener(False, reason, now)

    # ------------------------------------------------------------------
    # the gateway's decision hooks
    # ------------------------------------------------------------------
    def should_shed(self, priority: int) -> bool:
        return self.active and priority < self.policy.priority_floor

    def note_shed(self) -> None:
        self.shed += 1

    def wait_stretch(self) -> float:
        """Current batch max-wait multiplier (1.0 when healthy)."""
        return self.policy.deadline_stretch if self.active else 1.0

    # ------------------------------------------------------------------
    def report_block(self) -> Dict[str, Any]:
        """The canonical ``degraded`` block of the ServingReport."""
        degraded = self.degraded_ns
        if self.active and self._entered_at is not None:
            degraded += self.sim.now - self._entered_at
        return {
            "policy": self.policy.to_dict(),
            "entries": self.entries,
            "shed": self.shed,
            "active": self.active,
            "degraded_ns": degraded,
            "timeline": list(self.timeline),
        }
