"""Local work queues with lazy remote-status inference.

Section 4.2: "To curb the overhead of monitoring remote status, we will
implement local work queues per worker and infer (approximately) the
status of remote workers via the status of the local queue, using
techniques inspired by Lazy Scheduling."

:class:`LocalWorkQueue` is one Worker's queue; :class:`LazyStatusTracker`
is the load-inference component.  In *eager* mode every query polls the
remote queue (one status message each); in *lazy* mode a cached snapshot
is used until it expires, so status traffic collapses by the
refresh-ratio -- the quantity the CLAIM-LAZY experiment measures.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.apps.taskgraph import Task
from repro.sim import Simulator, Store
from repro.telemetry.quantiles import mean


class LocalWorkQueue:
    """One Worker's task queue (a simulation Store plus depth stats)."""

    def __init__(self, sim: Simulator, worker_id: int) -> None:
        self.sim = sim
        self.worker_id = worker_id
        self.store = Store(sim, name=f"queue.w{worker_id}")
        self.enqueued = 0
        self.completed = 0

    def push(self, task: Task) -> None:
        self.enqueued += 1
        self.store.put_nowait(task)

    def pop(self):
        """Waitable get: ``task = yield queue.pop()``."""
        return self.store.get()

    def mark_done(self) -> None:
        self.completed += 1

    @property
    def depth(self) -> int:
        return len(self.store)

    @property
    def outstanding(self) -> int:
        """Tasks enqueued but not yet completed (queued + in-flight)."""
        return self.enqueued - self.completed


class LazyStatusTracker:
    """Approximate remote-load view with bounded monitoring traffic."""

    def __init__(
        self,
        sim: Simulator,
        queues: List[LocalWorkQueue],
        refresh_interval_ns: float = 10_000.0,
        lazy: bool = True,
    ) -> None:
        if refresh_interval_ns <= 0:
            raise ValueError("refresh interval must be positive")
        self.sim = sim
        self.queues = queues
        self.refresh_interval_ns = refresh_interval_ns
        self.lazy = lazy
        self.status_messages = 0
        self._cache: Dict[int, int] = {}
        self._cached_at: Dict[int, float] = {}

    def estimated_loads(self, observer: int, targets: Sequence[int]) -> List[int]:
        """``observer``'s beliefs about each of ``targets``' outstanding
        work, in order -- one call per placement scores the whole pool.

        Each target is resolved exactly as a separate query in list
        order would be: the observer's own queue is read for free, eager
        mode polls every other target (one status message each), and
        lazy mode re-polls a target only when its cached snapshot has
        expired.
        """
        queues = self.queues
        if not self.lazy:
            self.status_messages += sum(1 for w in targets if w != observer)
            return [queues[w].outstanding for w in targets]
        now = self.sim.now
        interval = self.refresh_interval_ns
        cache = self._cache
        cached_at = self._cached_at
        messages = 0
        loads = []
        for w in targets:
            if w == observer:
                loads.append(queues[w].outstanding)  # local state is free
                continue
            at = cached_at.get(w)
            if at is None or now - at >= interval:
                messages += 1
                load = cache[w] = queues[w].outstanding
                cached_at[w] = now
            else:
                load = cache[w]
            loads.append(load)
        self.status_messages += messages
        return loads

    def estimated_load(self, observer: int, target: int) -> int:
        """``observer``'s belief about ``target``'s outstanding work."""
        return self.estimated_loads(observer, (target,))[0]

    def least_loaded(self, observer: int) -> int:
        """The worker believed least loaded (ties to lowest id)."""
        loads = self.estimated_loads(observer, range(len(self.queues)))
        return min(range(len(loads)), key=lambda w: (loads[w], w))

    def staleness_error(self) -> float:
        """Mean absolute difference between beliefs and reality now."""
        if not self._cache:
            return 0.0
        errors = [
            abs(self._cache[w] - self.queues[w].outstanding) for w in self._cache
        ]
        return mean(errors)
