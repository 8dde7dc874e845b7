"""The reconfiguration daemon.

"The runtime scheduler/daemon will read periodically the system status
and the History file in order to decide at runtime what functions should
be loaded on the reconfiguration block."

Every ``period_ns`` the daemon ranks recently-called functions by the
*benefit* of hardware acceleration -- decayed call volume times the
predicted per-call saving (software minus hardware latency at the
function's typical size) -- and loads the best-fitting module variants
for the top functions into the domain's regions, preferring Workers
whose fabric is idle and evicting least-recently-used modules.

Hotness is an exponentially-decayed count, not a raw window sum: each
control period the previous score is multiplied by ``decay`` before the
new period's calls are added.  A function that was hot and went quiet
therefore *loses* rank over successive periods instead of riding a
four-period window forever, and once its score stays below
``evict_hotness`` for ``evict_after_periods`` consecutive evaluations
(and its regions have been idle for a full window) the daemon blanks its
regions so the fabric is free for currently-hot work.  The streak
requirement is the hysteresis: one quiet period never unloads anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from repro.core.compute_node import ComputeNode
from repro.core.runtime.history import ExecutionHistory
from repro.core.unilogic import UnilogicDomain
from repro.core.worker import FunctionRegistry
from repro.fabric.module_library import ModuleLibrary
from repro.fabric.region import RegionState
from repro.sim import Timeout


@dataclass
class DaemonStats:
    evaluations: int = 0
    loads_triggered: int = 0
    functions_loaded: List[str] = field(default_factory=list)
    evictions: int = 0
    functions_evicted: List[str] = field(default_factory=list)


class ReconfigurationDaemon:
    """Periodic history-driven module loader."""

    def __init__(
        self,
        node: ComputeNode,
        unilogic: UnilogicDomain,
        library: ModuleLibrary,
        registry: FunctionRegistry,
        history: ExecutionHistory,
        period_ns: float = 500_000.0,
        window_ns: Optional[float] = None,
        max_loads_per_period: int = 2,
        min_benefit_ns: float = 0.0,
        decay: float = 0.5,
        evict_hotness: float = 0.5,
        evict_after_periods: int = 3,
        max_evictions_per_period: int = 1,
        telemetry=None,
    ) -> None:
        if period_ns <= 0:
            raise ValueError("period must be positive")
        if max_loads_per_period < 1:
            raise ValueError("max_loads_per_period must be >= 1")
        if not 0.0 <= decay < 1.0:
            raise ValueError("decay must be in [0, 1)")
        if evict_after_periods < 1:
            raise ValueError("evict_after_periods must be >= 1")
        self.node = node
        self.unilogic = unilogic
        self.library = library
        self.registry = registry
        self.history = history
        self.period_ns = period_ns
        self.window_ns = window_ns if window_ns is not None else 4 * period_ns
        self.max_loads_per_period = max_loads_per_period
        self.min_benefit_ns = min_benefit_ns
        self.decay = decay
        self.evict_hotness = evict_hotness
        self.evict_after_periods = evict_after_periods
        self.max_evictions_per_period = max_evictions_per_period
        self.telemetry = telemetry
        self.stats = DaemonStats()
        self._running = True
        #: decayed per-function call score; refreshed once per sim instant
        self.hotness: Dict[str, float] = {}
        self._last_refresh_ns = 0.0
        self._refreshed = False
        self._cold_streak: Dict[str, int] = {}

    def stop(self) -> None:
        self._running = False

    # ------------------------------------------------------------------
    def _refresh_hotness(self) -> None:
        """Fold calls since the last refresh into the decayed scores.

        Idempotent at one sim instant so ``rank_candidates`` may be
        called standalone (tests, inspection) without double counting.
        """
        now = self.node.sim.now
        if self._refreshed and now <= self._last_refresh_ns:
            return
        fresh = self.history.call_counts(since=self._last_refresh_ns)
        next_hotness: Dict[str, float] = {}
        for function in set(self.hotness) | set(fresh):
            score = self.hotness.get(function, 0.0) * self.decay + fresh.get(
                function, 0
            )
            if score > 1e-9:
                next_hotness[function] = score
        self.hotness = next_hotness
        self._last_refresh_ns = now
        self._refreshed = True

    def rank_candidates(self) -> List[Tuple[float, str]]:
        """(benefit_ns, function) for unhosted, acceleratable functions."""
        self._refresh_hotness()
        since = max(0.0, self.node.sim.now - self.window_ns)
        hosted = self.node.hosted_regions()
        out = []
        for function, score in self.hotness.items():
            if function in hosted or function not in self.library:
                continue
            # load floor = eviction threshold: anything colder would be
            # an immediate eviction candidate, so loading it is churn
            if score < self.evict_hotness:
                continue
            # typical call size: over the window, else over every call
            mean_items = self.history.mean_items(function, since=since)
            if mean_items is None:
                mean_items = self.history.mean_items(function)
                if mean_items is None:
                    continue
            items = max(1, int(mean_items))
            sw_ns = self.history.mean_latency(function, "sw")
            if sw_ns is None:
                continue
            module = self.library.best_variant(function, items_hint=items)
            if module is None:
                continue
            hw_ns = module.latency_ns(items)
            benefit = score * (sw_ns - hw_ns)
            if benefit > self.min_benefit_ns:
                out.append((benefit, function))
        out.sort(reverse=True)
        return out

    def _target_worker(self):
        """Prefer the Worker with the most idle fabric (fewest READY
        regions), ties to lowest id."""
        def idle_key(w):
            ready = sum(
                1 for r in w.fabric.regions if r.state is not RegionState.EMPTY
            )
            return (ready, w.worker_id)

        return min(self.node.workers, key=idle_key)

    def _evict_cold(self) -> None:
        """Blank regions whose function has stayed cold for a full streak.

        Hysteresis: a function must score below ``evict_hotness`` for
        ``evict_after_periods`` consecutive evaluations, and a region is
        only blanked when it has not been used for a whole window --
        in-flight invocations keep their region alive.
        """
        hosted = self.node.hosted_regions()
        for function in list(self._cold_streak):
            if function not in hosted:
                del self._cold_streak[function]
        for function in sorted(hosted):
            if self.hotness.get(function, 0.0) < self.evict_hotness:
                self._cold_streak[function] = self._cold_streak.get(function, 0) + 1
            else:
                self._cold_streak[function] = 0

        now = self.node.sim.now
        evicted = 0
        for function in sorted(hosted):
            if evicted >= self.max_evictions_per_period:
                return
            if self._cold_streak.get(function, 0) < self.evict_after_periods:
                continue
            for worker_id, region in hosted[function]:
                if evicted >= self.max_evictions_per_period:
                    break
                if region.state is not RegionState.READY:
                    continue
                if region.last_used_at > now - self.window_ns:
                    continue
                self.node.worker(worker_id).reconfig.unload(region)
                evicted += 1
                self.stats.evictions += 1
                self.stats.functions_evicted.append(function)
                if self.telemetry is not None:
                    self.telemetry.event(
                        "daemon.evict",
                        f"{self.node.name}.daemon",
                        function=function,
                        worker=worker_id,
                        region=region.region_id,
                        cold_periods=self._cold_streak[function],
                    )
            self._cold_streak[function] = 0

    def evaluate(self) -> Generator:
        """One evaluation pass (a simulation process -- loads take time)."""
        self.stats.evaluations += 1
        for benefit, function in self.rank_candidates()[: self.max_loads_per_period]:
            worker = self._target_worker()
            capacity = max(
                (r.capacity for r in worker.fabric.regions),
                key=lambda c: c.area_units(),
            )
            module = self.library.best_variant(function, capacity=capacity)
            if module is None:
                continue
            region = yield from worker.load_module(module)
            if region is not None:
                self.stats.loads_triggered += 1
                self.stats.functions_loaded.append(function)
                if self.telemetry is not None:
                    self.telemetry.event(
                        "daemon.load",
                        f"{self.node.name}.daemon",
                        function=function,
                        worker=worker.worker_id,
                        benefit_ns=benefit,
                    )
        self._evict_cold()

    def run(self) -> Generator:
        """The daemon's periodic loop (spawn as a simulation process)."""
        while self._running:
            yield Timeout(self.period_ns)
            if not self._running:
                return
            yield from self.evaluate()
