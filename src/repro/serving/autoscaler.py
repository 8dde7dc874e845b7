"""The SLO-driven autoscaler: Fig. 5's loop closed against live demand.

Each control period the autoscaler

1. delegates to the existing
   :class:`~repro.core.runtime.daemon.ReconfigurationDaemon` -- decayed
   hotness ranks unhosted functions and loads the most beneficial ones,
   while cold hosted functions are evicted with hysteresis (that is the
   paper's history-driven daemon, unchanged), and then
2. adds the *elastic* dimension the daemon does not have: when a tenant's
   streaming p99 runs past its SLO target, or a hosted function's
   hotness crosses ``scale_up_hotness``, the autoscaler configures an
   additional **replica** of the hottest hosted function on a Worker not
   yet hosting it (up to ``max_replicas``), so hardware bandwidth scales
   with demand rather than with the static one-region-per-function the
   daemon converges to.

Hysteresis against thrashing: every scale-up puts the function on a
``cooldown_periods``-long cooldown before it may scale again, and
eviction of cold functions inherits the daemon's consecutive-cold-period
streak requirement.

Every action (daemon load, daemon evict, replica) is recorded on
``stats.actions`` with its simulated timestamp -- the serving report's
audit trail of how the machine reshaped itself under load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional

from repro.core.runtime.daemon import ReconfigurationDaemon
from repro.fabric.region import RegionState
from repro.serving.slo import SLOTracker
from repro.sim import Timeout


@dataclass
class AutoscalerStats:
    evaluations: int = 0
    loads: int = 0
    replicas: int = 0
    evictions: int = 0
    slo_triggers: int = 0
    actions: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def regions_configured(self) -> int:
        """Regions the loop (re)configured in response to load."""
        return self.loads + self.replicas


class Autoscaler:
    """Periodic controller over the reconfiguration daemon + replicas."""

    def __init__(
        self,
        engine,
        slo: SLOTracker,
        period_ns: float = 100_000.0,
        scale_up_hotness: float = 8.0,
        max_replicas: int = 2,
        cooldown_periods: int = 2,
        min_completions_for_slo: int = 20,
        daemon_kwargs: Optional[Dict[str, Any]] = None,
        telemetry=None,
    ) -> None:
        if period_ns <= 0:
            raise ValueError("period must be positive")
        if max_replicas < 1:
            raise ValueError("max_replicas must be >= 1")
        self.engine = engine
        self.node = engine.node
        self.slo = slo
        self.period_ns = period_ns
        self.scale_up_hotness = scale_up_hotness
        self.max_replicas = max_replicas
        self.cooldown_periods = cooldown_periods
        self.min_completions_for_slo = min_completions_for_slo
        self.telemetry = telemetry
        self.daemon = ReconfigurationDaemon(
            engine.node,
            engine.unilogic,
            engine.library,
            engine.registry,
            engine.history,
            period_ns=period_ns,
            telemetry=telemetry,
            **(daemon_kwargs or {}),
        )
        self.stats = AutoscalerStats()
        self._cooldown: Dict[str, int] = {}
        self._running = True
        # opt-in: point this at a BurnRateAlerter (or anything with
        # ``is_burning()``) and a firing alert counts as SLO pressure --
        # never wired automatically, so alerting stays observe-only by
        # default and traced runs do not perturb scaling decisions
        self.alert_source = None
        # opt-in: point this at a BrownoutController (anything with an
        # ``active`` attribute) and replica scale-ups pause while the
        # machine is degraded -- scaling into a half-dead machine only
        # burns reconfiguration time the restore needs
        self.brownout_source = None

    def stop(self) -> None:
        self._running = False
        self.daemon.stop()

    # ------------------------------------------------------------------
    def _slo_pressure(self) -> bool:
        """Any tenant whose streaming p99 is past its target?"""
        if self.alert_source is not None and self.alert_source.is_burning():
            return True
        for t in self.slo.tenants():
            if (
                t.completed >= self.min_completions_for_slo
                and t.p99.value > t.slo_ns
            ):
                return True
        return False

    def _replica_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for w in self.node.workers:
            for r in w.fabric.regions:
                if r.state is RegionState.READY and r.function:
                    counts[r.function] = counts.get(r.function, 0) + 1
        return counts

    def _replica_target(self, function: str):
        """Worker to host an additional replica: prefer an empty region
        on a Worker not already hosting the function, ties to lowest id."""
        candidates = []
        for w in self.node.workers:
            hosts = any(
                r.state is RegionState.READY and r.function == function
                for r in w.fabric.regions
            )
            if hosts:
                continue
            empties = len(w.fabric.free_regions())
            candidates.append((-empties, w.worker_id, w))
        if not candidates:
            return None
        candidates.sort(key=lambda c: (c[0], c[1]))
        best = candidates[0]
        if -best[0] == 0:
            return None                 # no empty region anywhere useful
        return best[2]

    def _record(self, action: str, function: str, **attrs: Any) -> None:
        entry = {
            "at_ns": self.node.sim.now,
            "action": action,
            "function": function,
        }
        entry.update(attrs)
        self.stats.actions.append(entry)
        if self.telemetry is not None:
            self.telemetry.event(
                f"autoscaler.{action.replace('-', '_')}",
                f"{self.node.name}.autoscaler",
                function=function,
                **attrs,
            )

    # ------------------------------------------------------------------
    def evaluate(self) -> Generator:
        """One control period (a simulation process -- loads take time)."""
        self.stats.evaluations += 1
        loads_before = len(self.daemon.stats.functions_loaded)
        evicts_before = len(self.daemon.stats.functions_evicted)
        yield from self.daemon.evaluate()
        for fn in self.daemon.stats.functions_loaded[loads_before:]:
            self.stats.loads += 1
            self._record("load", fn)
        for fn in self.daemon.stats.functions_evicted[evicts_before:]:
            self.stats.evictions += 1
            self._record("evict", fn)

        for fn in list(self._cooldown):
            self._cooldown[fn] -= 1
            if self._cooldown[fn] <= 0:
                del self._cooldown[fn]

        if self.brownout_source is not None and self.brownout_source.active:
            return                       # degraded: hold replica scale-ups
        pressure = self._slo_pressure()
        if pressure:
            self.stats.slo_triggers += 1
        replicas = self._replica_counts()
        hosted_hot = sorted(
            (
                (self.daemon.hotness.get(fn, 0.0), fn)
                for fn in replicas
            ),
            reverse=True,
        )
        for hotness, function in hosted_hot:
            if function in self._cooldown:
                continue
            if replicas[function] >= self.max_replicas:
                continue
            if not pressure and hotness < self.scale_up_hotness:
                continue
            worker = self._replica_target(function)
            if worker is None:
                continue
            capacity = max(
                (r.capacity for r in worker.fabric.regions),
                key=lambda c: c.area_units(),
            )
            module = self.engine.library.best_variant(function, capacity=capacity)
            if module is None:
                continue
            region = yield from worker.load_module(module)
            if region is not None:
                self.stats.replicas += 1
                self._cooldown[function] = self.cooldown_periods
                self._record(
                    "replica",
                    function,
                    worker=worker.worker_id,
                    region=region.region_id,
                    hotness=hotness,
                    slo_pressure=pressure,
                )
            break                        # at most one replica per period

    def run(self) -> Generator:
        """The periodic control loop (spawn as a simulation process)."""
        while self._running:
            yield Timeout(self.period_ns)
            if not self._running:
                return
            yield from self.evaluate()
