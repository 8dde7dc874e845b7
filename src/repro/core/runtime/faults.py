"""Failure detection and task retry: resilience above the fabric.

The fabric layer already survives broken *regions*
(:mod:`repro.core.resilience`); this module extends the story to broken
*Workers* -- the dominant failure domain at exascale (Ammendola et al.
2018).  A :class:`TaskSupervisor` armed on an
:class:`~repro.core.runtime.engine.ExecutionEngine` provides:

- **heartbeat failure detection**: a periodic monitor pings every
  Worker's scheduler; ``miss_threshold`` consecutive missed beats
  declare the Worker failed, so detection latency is bounded by
  ``miss_threshold * heartbeat_period_ns``,
- **re-dispatch**: queued and in-flight tasks of a failed Worker are
  reclaimed and resubmitted to survivors through the work distributor
  (which drops the failed Worker from the placement pool),
- **bounded exponential backoff retry**: each re-dispatch waits
  ``min(base * 2**(attempt-1), cap)``, optionally scaled by a
  seed-deterministic per-(task, attempt) jitter factor so correlated
  failures do not retry in lockstep; tasks that exhaust
  ``max_attempts`` -- or arrive while the machine-wide sliding-window
  retry budget is spent -- are recorded unrecovered and their
  completion signal fired with ``failed=True`` so a run always
  terminates,
- **speculative timeout retry** (optional): an in-flight task older than
  ``task_timeout_ns`` on a *live* Worker (e.g. stalled behind a dead
  link) is duplicated onto another Worker; the first completion wins.

With no supervisor armed the runtime's behaviour is bit-identical to
the pre-fault-tolerance code path.
"""

from __future__ import annotations

import random
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Generator, List, Optional

from repro.core.runtime.scheduler import WorkItem
from repro.sim import Timeout, spawn


@dataclass(frozen=True)
class FaultTolerancePolicy:
    """Knobs of the self-healing runtime."""

    heartbeat_period_ns: float = 20_000.0
    miss_threshold: int = 2
    max_attempts: int = 4
    backoff_base_ns: float = 10_000.0
    backoff_cap_ns: float = 200_000.0
    task_timeout_ns: Optional[float] = None   # None = no speculative retry
    # seed-deterministic backoff jitter: each retry waits the exponential
    # base scaled by a factor drawn uniformly from [1-j, 1+j] out of a
    # per-(task, attempt) RNG stream.  0.0 = the exact legacy schedule,
    # so mass failures retry in lockstep (the storm this knob breaks up).
    backoff_jitter: float = 0.0
    # machine-wide retry budget: at most ``retry_budget`` re-dispatches
    # per sliding ``retry_budget_window_ns`` across *all* tasks.  Over
    # budget, a reclaimed task is recorded unrecovered instead of
    # retried, so a correlated-failure storm degrades to bounded loss
    # rather than livelocking the event loop.  None = unlimited.
    retry_budget: Optional[int] = None
    retry_budget_window_ns: float = 1_000_000.0

    def __post_init__(self) -> None:
        if self.heartbeat_period_ns <= 0:
            raise ValueError("heartbeat period must be positive")
        if self.miss_threshold < 1:
            raise ValueError("miss threshold must be at least 1")
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt")
        if self.backoff_base_ns < 0 or self.backoff_cap_ns < 0:
            raise ValueError("backoff must be non-negative")
        if self.task_timeout_ns is not None and self.task_timeout_ns <= 0:
            raise ValueError("task timeout must be positive")
        if not 0.0 <= self.backoff_jitter < 1.0:
            raise ValueError("backoff jitter must be in [0, 1)")
        if self.retry_budget is not None and self.retry_budget < 1:
            raise ValueError("retry budget must be >= 1 (or None)")
        if self.retry_budget_window_ns <= 0:
            raise ValueError("retry budget window must be positive")

    def backoff_ns(self, attempt: int, key: Optional[object] = None) -> float:
        """Bounded exponential backoff for retry number ``attempt`` (1-based).

        ``key`` (typically the task id) selects the jitter stream; string
        seeding hashes via sha512, so the factor is stable across
        processes -- same task, same attempt, same wait, every run.
        """
        base = min(self.backoff_base_ns * (2 ** (attempt - 1)), self.backoff_cap_ns)
        if self.backoff_jitter <= 0.0 or key is None:
            return base
        u = random.Random(f"backoff:{key}:{attempt}").random()
        return base * (1.0 + self.backoff_jitter * (2.0 * u - 1.0))


@dataclass
class WorkerFailureRecord:
    """One Worker failure: crash, detection, re-dispatch, recovery."""

    worker_id: int
    crashed_at: float
    permanent: bool = True
    detected_at: Optional[float] = None
    tasks_redispatched: int = 0
    outstanding: int = 0            # re-dispatched tasks not yet finished
    recovered_at: Optional[float] = None   # last re-dispatched task done
    rejoined_at: Optional[float] = None    # transient Worker back in pool

    @property
    def detection_ns(self) -> Optional[float]:
        if self.detected_at is None:
            return None
        return self.detected_at - self.crashed_at

    @property
    def time_to_recover_ns(self) -> Optional[float]:
        if self.recovered_at is None:
            return None
        return self.recovered_at - self.crashed_at


class TaskSupervisor:
    """Heartbeat monitor + retry machinery for one Execution Engine."""

    def __init__(self, engine, policy: FaultTolerancePolicy, telemetry=None) -> None:
        # weak: the engine owns this supervisor (see DESIGN.md, "Object
        # lifetime")
        self._engine = weakref.ref(engine)
        self.policy = policy
        self.telemetry = telemetry
        self.failures: List[WorkerFailureRecord] = []
        self.speculative: List[WorkerFailureRecord] = []   # timeout retries
        self.unrecovered: List[WorkItem] = []
        self.tasks_retried = 0
        self.retries_denied = 0        # budget-exhausted give-ups
        self.work_lost_ns = 0.0
        self._retry_times: Deque[float] = deque()   # retry budget window
        self._misses: Dict[int, int] = {}
        self._open: Dict[int, WorkerFailureRecord] = {}   # detected, not rejoined
        self._running = True

    @property
    def engine(self):
        return self._engine()

    # ------------------------------------------------------------------
    # lifecycle (the engine spawns run() and calls stop())
    # ------------------------------------------------------------------
    def stop(self) -> None:
        self._running = False

    def run(self) -> Generator:
        """The heartbeat loop (spawn as a simulation process)."""
        while self._running:
            yield Timeout(self.policy.heartbeat_period_ns)
            if not self._running:
                return
            for scheduler in self.engine.schedulers:
                w = scheduler.worker_id
                if scheduler.crashed:
                    if w in self._open:
                        continue        # already declared, awaiting rejoin
                    self._misses[w] = self._misses.get(w, 0) + 1
                    if self._misses[w] >= self.policy.miss_threshold:
                        self._declare_failed(w)
                else:
                    self._misses[w] = 0
            if self.policy.task_timeout_ns is not None:
                self._check_timeouts()

    # ------------------------------------------------------------------
    # crash notifications (called synchronously by the engine)
    # ------------------------------------------------------------------
    def notify_crash(self, worker_id: int, permanent: bool) -> WorkerFailureRecord:
        record = WorkerFailureRecord(
            worker_id=worker_id,
            crashed_at=self.engine.node.sim.now,
            permanent=permanent,
        )
        self.failures.append(record)
        return record

    def notify_recover(self, worker_id: int) -> None:
        self._misses[worker_id] = 0
        record = self._open.pop(worker_id, None)
        now = self.engine.node.sim.now
        for failure in reversed(self.failures):
            if failure.worker_id == worker_id and failure.rejoined_at is None:
                failure.rejoined_at = now
                break
        if record is not None and record.outstanding == 0 and record.recovered_at is None:
            record.recovered_at = now

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------
    def _failure_record(self, worker_id: int) -> WorkerFailureRecord:
        for failure in reversed(self.failures):
            if failure.worker_id == worker_id and failure.detected_at is None:
                return failure
        # crash the engine was never told about (e.g. direct scheduler.fail())
        record = WorkerFailureRecord(
            worker_id=worker_id, crashed_at=self.engine.node.sim.now
        )
        self.failures.append(record)
        return record

    def _declare_failed(self, worker_id: int) -> None:
        sim = self.engine.node.sim
        record = self._failure_record(worker_id)
        record.detected_at = sim.now
        self._open[worker_id] = record
        # leave the placement pool first, then reclaim the backlog: events
        # are atomic callbacks, so no submission can slip in between
        self.engine.distributor.mark_down(worker_id)
        scheduler = self.engine.schedulers[worker_id]
        orphans = scheduler.drain_pending()
        inflight = scheduler.current_item
        if (
            inflight is not None
            and not inflight.done.triggered
            and not inflight.redispatched
        ):
            scheduler.queue.enqueued -= 1   # its pop will never complete here
            orphans.append(inflight)
        if self.telemetry is not None:
            self.telemetry.event(
                "runtime.worker_failed",
                f"{self.engine.node.name}.runtime",
                worker=worker_id,
                detection_ns=record.detection_ns,
                orphans=len(orphans),
            )
        for item in orphans:
            item.redispatched = True
            record.tasks_redispatched += 1
            record.outstanding += 1
            spawn(sim, self._retry(item, record), name=f"retry.{item.task.task_id}")
        if record.outstanding == 0:
            record.recovered_at = sim.now

    def _budget_exhausted(self) -> bool:
        """Sliding-window check of the machine-wide retry budget."""
        budget = self.policy.retry_budget
        if budget is None:
            return False
        now = self.engine.node.sim.now
        cutoff = now - self.policy.retry_budget_window_ns
        times = self._retry_times
        while times and times[0] <= cutoff:
            times.popleft()
        return len(times) >= budget

    def _retry(self, item: WorkItem, record: WorkerFailureRecord) -> Generator:
        item.attempts += 1
        if item.attempts > self.policy.max_attempts - 1:
            self._give_up(item, record)
            return
        yield Timeout(self.policy.backoff_ns(item.attempts, key=item.task.task_id))
        alive = [
            w for w in range(len(self.engine.schedulers))
            if w not in self.engine.distributor.down_workers
        ]
        if not alive:
            self._give_up(item, record)
            return
        if self._budget_exhausted():
            self.retries_denied += 1
            if self.telemetry is not None:
                self.telemetry.event(
                    "runtime.retry_budget_exhausted",
                    f"{self.engine.node.name}.runtime",
                    task=item.task.task_id,
                    job=item.job_id,
                    budget=self.policy.retry_budget,
                    window_ns=self.policy.retry_budget_window_ns,
                )
            self._give_up(item, record)
            return
        self._retry_times.append(self.engine.node.sim.now)
        # re-place through the owning job's policy: retries preserve
        # tenant isolation (same job id, same decision rules)
        worker = self.engine.distributor.choose_worker(
            item.task, observer=0, job=item.job_id
        )
        item.redispatched = False       # back in a live queue, claimable again
        self.engine.schedulers[worker].resubmit(item)
        self.tasks_retried += 1
        self.engine.jobs.record(item.job_id).tasks_retried += 1
        if self.telemetry is not None:
            attrs = dict(
                task=item.task.task_id,
                function=item.task.function,
                attempt=item.attempts,
                worker=worker,
                job=item.job_id,
            )
            if item.task.tags:
                # retry-onto-survivor stays attributable to its requests
                attrs["requests"] = item.task.tags.get("requests")
            self.telemetry.event(
                "runtime.task_retry",
                f"{self.engine.node.name}.runtime",
                **attrs,
            )
        yield item.done
        record.outstanding -= 1
        if record.outstanding == 0 and record.recovered_at is None:
            record.recovered_at = self.engine.node.sim.now
            if self.telemetry is not None:
                self.telemetry.event(
                    "runtime.worker_recovered",
                    f"{self.engine.node.name}.runtime",
                    worker=record.worker_id,
                    time_to_recover_ns=record.time_to_recover_ns,
                )

    def _give_up(self, item: WorkItem, record: WorkerFailureRecord) -> None:
        item.failed = True
        self.unrecovered.append(item)
        self.engine.jobs.record(item.job_id).tasks_unrecovered += 1
        record.outstanding -= 1
        if record.outstanding == 0 and record.recovered_at is None:
            record.recovered_at = self.engine.node.sim.now
        if self.telemetry is not None:
            attrs = dict(
                task=item.task.task_id,
                function=item.task.function,
                attempts=item.attempts,
                job=item.job_id,
            )
            if item.task.tags:
                attrs["requests"] = item.task.tags.get("requests")
            self.telemetry.event(
                "runtime.task_unrecovered",
                f"{self.engine.node.name}.runtime",
                **attrs,
            )
        if not item.done.triggered:
            item.done.succeed(None)     # unblock the driver: the run ends

    # ------------------------------------------------------------------
    # speculative timeout retries (live Worker, stuck task)
    # ------------------------------------------------------------------
    def _check_timeouts(self) -> None:
        sim = self.engine.node.sim
        timeout = self.policy.task_timeout_ns
        for scheduler in self.engine.schedulers:
            if scheduler.crashed:
                continue        # crash path handles these
            item = scheduler.current_item
            if (
                item is None
                or item.done.triggered
                or item.redispatched
                or item.started_at is None
                or sim.now - item.started_at < timeout
                or item.attempts >= self.policy.max_attempts - 1
            ):
                continue
            # a stuck task is not a dead Worker: track it on a standalone
            # record so worker-failure metrics stay crash-only
            record = WorkerFailureRecord(
                worker_id=scheduler.worker_id,
                crashed_at=item.started_at,
                permanent=False,
            )
            record.detected_at = sim.now
            self.speculative.append(record)
            item.redispatched = True
            record.tasks_redispatched += 1
            record.outstanding += 1
            if self.telemetry is not None:
                attrs = dict(
                    task=item.task.task_id,
                    worker=scheduler.worker_id,
                    age_ns=sim.now - item.started_at,
                )
                if item.task.tags:
                    attrs["requests"] = item.task.tags.get("requests")
                self.telemetry.event(
                    "runtime.task_timeout",
                    f"{self.engine.node.name}.runtime",
                    **attrs,
                )
            spawn(
                sim,
                self._retry(item, record),
                name=f"spec-retry.{item.task.task_id}",
            )

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def mean_detection_ns(self) -> float:
        from repro.telemetry.quantiles import mean

        return mean(
            [f.detection_ns for f in self.failures if f.detection_ns is not None]
        )

    def mean_recovery_ns(self) -> float:
        from repro.telemetry.quantiles import mean

        return mean(
            [
                f.time_to_recover_ns
                for f in self.failures
                if f.time_to_recover_ns is not None
            ]
        )
