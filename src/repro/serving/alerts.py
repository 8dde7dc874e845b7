"""SLO burn-rate alerting over the serving completion stream.

The classic SRE formulation: a tenant has an SLO *attainment target*
(e.g. 95% of completions within ``slo_ns``), which leaves an **error
budget** of ``1 - target``.  The *burn rate* over a window is

::

    burn = (violations-in-window / completions-in-window) / budget

``burn == 1`` consumes the budget exactly at the sustainable rate;
``burn == 10`` exhausts it 10x too fast.  Two windows watch the same
stream:

- the **fast** window (short, high threshold) catches cliffs -- a
  flash crowd blowing latency up right now,
- the **slow** window (long, lower threshold) catches smolder -- a
  steady trickle of deadline misses that a short window keeps
  forgetting.

Each (tenant, window) pair is a tiny fire/clear state machine: an
alert *fires* when its burn crosses the threshold with at least
``min_completions`` observations in the window, and *clears* when it
drops back under.  Every transition lands on the alert timeline (and,
when a telemetry hub is attached, as a structured ``slo.burn`` event),
so the report's alert history is a deterministic function of the
completion stream -- replaying the same seed reproduces it exactly.

The alerter is observe-only by default.  Consumers opt in:
:meth:`BurnRateAlerter.is_burning` is the hook the autoscaler (via its
``alert_source``) and chaos verdicts can poll.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple


@dataclass
class BurnRatePolicy:
    """Windows and thresholds for one serving run's alerting."""

    target: float = 0.95             # SLO attainment goal (budget = 1-target)
    fast_window_ns: float = 200_000.0
    fast_burn: float = 10.0          # page-grade: budget gone ~10x too fast
    slow_window_ns: float = 1_000_000.0
    slow_burn: float = 4.0           # ticket-grade: sustained overspend
    min_completions: int = 10        # observations before a window may fire
    # the internal latency objective as a fraction of the contractual
    # SLO: alerting against a tighter objective (e.g. 0.1 = 10% of the
    # tenant's slo_ns) gives early warning while real attainment is
    # still 100% -- the usual SRE setup of objective < agreement
    slo_scale: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise ValueError("target must be in (0, 1)")
        if self.fast_window_ns <= 0 or self.slow_window_ns <= 0:
            raise ValueError("windows must be positive")
        if self.min_completions < 1:
            raise ValueError("min_completions must be >= 1")
        if self.slo_scale <= 0:
            raise ValueError("slo_scale must be positive")

    @property
    def budget(self) -> float:
        return 1.0 - self.target

    def to_dict(self) -> Dict[str, Any]:
        return {
            "target": self.target,
            "fast_window_ns": self.fast_window_ns,
            "fast_burn": self.fast_burn,
            "slow_window_ns": self.slow_window_ns,
            "slow_burn": self.slow_burn,
            "min_completions": self.min_completions,
            "slo_scale": self.slo_scale,
        }


class _WindowState:
    """One (tenant, window) sliding window + its fire/clear latch."""

    __slots__ = ("window_ns", "threshold", "samples", "violations", "firing")

    def __init__(self, window_ns: float, threshold: float) -> None:
        self.window_ns = window_ns
        self.threshold = threshold
        self.samples: Deque[Tuple[float, bool]] = deque()
        self.violations = 0
        self.firing = False

    def observe(self, ts: float, violated: bool) -> None:
        self.samples.append((ts, violated))
        if violated:
            self.violations += 1
        cutoff = ts - self.window_ns
        while self.samples and self.samples[0][0] <= cutoff:
            _, old = self.samples.popleft()
            if old:
                self.violations -= 1

    def burn(self, budget: float) -> float:
        if not self.samples:
            return 0.0
        rate = self.violations / len(self.samples)
        return rate / budget


class BurnRateAlerter:
    """Multi-window burn-rate alerting, fed completion by completion."""

    def __init__(
        self,
        policy: Optional[BurnRatePolicy] = None,
        telemetry=None,
        component: str = "serve.alerts",
    ) -> None:
        self.policy = policy or BurnRatePolicy()
        self.telemetry = telemetry
        self._emit = (
            self.telemetry.emitter("slo.burn", component)
            if self.telemetry is not None
            else None
        )
        self._windows: Dict[Tuple[str, str], _WindowState] = {}
        self.timeline: List[Dict[str, Any]] = []
        self.fired = 0
        self.observed = 0

    # ------------------------------------------------------------------
    def _window(self, tenant: str, name: str) -> _WindowState:
        key = (tenant, name)
        state = self._windows.get(key)
        if state is None:
            p = self.policy
            if name == "fast":
                state = _WindowState(p.fast_window_ns, p.fast_burn)
            else:
                state = _WindowState(p.slow_window_ns, p.slow_burn)
            self._windows[key] = state
        return state

    def observe(self, ts: float, tenant: str, latency_ns: float, slo_ns: float) -> None:
        """Fold one completion in and evaluate both windows."""
        self.observed += 1
        violated = latency_ns > slo_ns * self.policy.slo_scale
        budget = self.policy.budget
        for name in ("fast", "slow"):
            state = self._window(tenant, name)
            state.observe(ts, violated)
            burn = state.burn(budget)
            should_fire = (
                len(state.samples) >= self.policy.min_completions
                and burn >= state.threshold
            )
            if should_fire and not state.firing:
                state.firing = True
                self.fired += 1
                self._transition(ts, tenant, name, burn, "fire")
            elif state.firing and not should_fire:
                state.firing = False
                self._transition(ts, tenant, name, burn, "clear")

    def _transition(
        self, ts: float, tenant: str, window: str, burn: float, event: str
    ) -> None:
        entry = {
            "ts": ts,
            "tenant": tenant,
            "window": window,
            "burn": round(burn, 6),
            "event": event,
        }
        self.timeline.append(entry)
        if self._emit is not None:
            self._emit(
                tenant=tenant, window=window, burn=entry["burn"], event=event
            )

    def note_degraded(self, active: bool, reason: Optional[str], ts: float) -> None:
        """Brownout transition observer (wired as a gateway listener).

        Lands on the same timeline as fire/clear entries so the alert
        history shows which burns happened *inside* a degraded window --
        an on-call reading the report can tell brownout fallout from
        organic SLO misses.
        """
        entry = {
            "ts": ts,
            "tenant": "*",
            "window": "degraded",
            "burn": 0.0,
            "event": "degraded-enter" if active else "degraded-exit",
        }
        if reason is not None:
            entry["reason"] = reason
        self.timeline.append(entry)
        if self._emit is not None:
            self._emit(
                tenant="*", window="degraded", burn=0.0, event=entry["event"]
            )

    # ------------------------------------------------------------------
    # consumer hooks
    # ------------------------------------------------------------------
    def is_burning(self, tenant: Optional[str] = None, window: Optional[str] = None) -> bool:
        """Any alert currently firing (optionally filtered)?

        This is the opt-in signal for the autoscaler's ``alert_source``
        and for chaos verdicts -- the alerter itself never acts.
        """
        for (t, w), state in self._windows.items():
            if tenant is not None and t != tenant:
                continue
            if window is not None and w != window:
                continue
            if state.firing:
                return True
        return False

    def active(self) -> List[Tuple[str, str]]:
        """(tenant, window) pairs currently firing, sorted."""
        return sorted(k for k, s in self._windows.items() if s.firing)

    # ------------------------------------------------------------------
    def report_block(self) -> Dict[str, Any]:
        """The canonical ``alerts`` block of the ServingReport."""
        return {
            "policy": self.policy.to_dict(),
            "observed": self.observed,
            "fired": self.fired,
            "active": [list(pair) for pair in self.active()],
            "timeline": list(self.timeline),
        }
