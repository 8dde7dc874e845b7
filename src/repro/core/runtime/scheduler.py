"""The per-Worker scheduler.

"We will implement one scheduler per worker, which will manage the local
reconfigurable blocks and the execution of the accelerated functions."

Each :class:`WorkerScheduler` drains its local work queue.  It is pure
*mechanism*: every popped item carries a job id, and the SW/HW decision
for it is delegated to that job's
:class:`~repro.core.runtime.policy.SchedulingPolicy` (looked up through
the shared :class:`~repro.core.runtime.jobs.JobRegistry`).  The
scheduler object itself is the decision context -- it carries the node,
the Worker, the UNILOGIC domain, the registry, the Execution History and
the trained selector that policies read.

Every completed call is appended to the Execution History (tagged with
its job) and accounted against its tenant's :class:`~repro.core.runtime.
jobs.JobRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, List, Optional

from repro.apps.taskgraph import Task
from repro.core.compute_node import ComputeNode
from repro.core.runtime.history import ExecutionHistory, ExecutionRecord
from repro.core.runtime.jobs import JobRegistry
from repro.core.runtime.lazy import LocalWorkQueue
from repro.core.runtime.policy import GreedyHardwarePolicy
from repro.core.unilogic import AcceleratorLost, UnilogicDomain
from repro.core.worker import FunctionRegistry
from repro.interconnect.message import TransactionType
from repro.sim import Signal

if TYPE_CHECKING:
    from repro.core.runtime.models import DeviceSelector


@dataclass
class WorkItem:
    """A task plus its completion signal (the engine joins on it).

    ``job_id`` tags which tenant the task belongs to (0 = the implicit
    legacy/default job) -- it sticks across supervisor retries, so
    recovery preserves job isolation.  The fault-tolerance fields
    (attempts, redispatched, failed) stay at their defaults on every
    healthy run; ``done`` fires exactly once even when a retry races the
    original execution (first completion wins).
    """

    task: Task
    done: Signal
    job_id: int = 0
    device_used: Optional[str] = None
    latency_ns: float = 0.0
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    attempts: int = 0               # retries consumed (0 = first dispatch)
    redispatched: bool = False      # claimed by the supervisor for retry
    failed: bool = False            # gave up: retry budget exhausted
    fell_back: bool = False         # accelerator died mid-call, re-ran in SW


_SHUTDOWN = object()


class WorkerScheduler:
    """Drains one Worker's queue, deciding SW vs. HW per task."""

    def __init__(
        self,
        node: ComputeNode,
        worker_id: int,
        queue: LocalWorkQueue,
        unilogic: UnilogicDomain,
        registry: FunctionRegistry,
        history: ExecutionHistory,
        selector: Optional[DeviceSelector] = None,
        energy_weight: float = 0.0,
        allow_hardware: bool = True,
        telemetry=None,
        jobs: Optional[JobRegistry] = None,
    ) -> None:
        self.node = node
        self.worker_id = worker_id
        self.worker = node.worker(worker_id)
        self.queue = queue
        self.unilogic = unilogic
        self.registry = registry
        self.history = history
        self.selector = selector
        self.energy_weight = energy_weight
        self.allow_hardware = allow_hardware
        self.telemetry = telemetry
        self.tracer = telemetry.tracer if telemetry is not None else None
        # standalone schedulers (tests) get a single-tenant registry
        self.jobs = jobs if jobs is not None else JobRegistry(GreedyHardwarePolicy())
        self.tasks_done = 0
        self.hw_chosen = 0
        self.sw_chosen = 0
        self.hw_fallbacks = 0   # accelerator died mid-call, re-ran in SW
        # fault-tolerance state (inert unless the engine arms a supervisor)
        self.crashed = False
        self.stranded: List[WorkItem] = []  # items lost to a crash, awaiting retry
        self.current_item: Optional[WorkItem] = None
        self.supervisor = None          # set by the engine when FT is enabled

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        self.queue.store.put_nowait(_SHUTDOWN)

    def fail(self) -> None:
        """Crash-stop this Worker's runtime: the loop strands whatever it
        holds and stops consuming (detection is the supervisor's job)."""
        self.crashed = True

    def restore(self) -> None:
        """Clear the crash flag (the engine respawns the loop if needed)."""
        self.crashed = False

    def submit(self, task: Task, job_id: int = 0) -> WorkItem:
        item = WorkItem(
            task=task,
            done=Signal(self.node.sim),
            job_id=job_id,
            submitted_at=self.node.sim.now,
        )
        self.queue.push(item)  # type: ignore[arg-type]
        return item

    def resubmit(self, item: WorkItem) -> WorkItem:
        """Queue an existing item again (retry path: same ``done`` signal,
        same ``job_id`` -- a retry never changes tenants)."""
        item.submitted_at = self.node.sim.now
        self.queue.push(item)  # type: ignore[arg-type]
        return item

    def drain_pending(self) -> list[WorkItem]:
        """Reclaim queued-but-unstarted items plus anything stranded by a
        crash (called by the supervisor once the failure is detected)."""
        drained = self.queue.store.drain()
        items = [i for i in drained if i is not _SHUTDOWN]
        for sentinel in drained:
            if sentinel is _SHUTDOWN:           # re-arm a pending shutdown
                self.queue.store.put_nowait(sentinel)
        self.queue.enqueued -= len(items)
        items.extend(self.stranded)
        self.stranded = []
        return items

    # ------------------------------------------------------------------
    def _strand(self, item: WorkItem) -> None:
        """A popped item this crashed loop will never complete: hand it to
        the supervisor (unless a retry already claimed it) and fix the
        queue accounting -- the pop un-enqueued it without completing."""
        self.queue.enqueued -= 1
        if not item.redispatched:
            self.stranded.append(item)

    def run(self) -> Generator:
        """The scheduler's main loop (spawn as a simulation process).

        Each popped item is executed right here: its job's policy picks
        SW or HW, the call runs (a software call holds a core through
        ``Worker.run_software``, the loop's only sub-generator on that
        path), and the completed call goes to the Execution History and
        its tenant's record.

        A crash-stop (:meth:`fail`) takes effect at the loop's next
        decision point: a popped item is stranded instead of executed,
        and a result computed while the flag was raised is discarded
        (the work happened, its answer died with the Worker).
        """
        lane = self.worker.name
        sim = self.node.sim
        worker = self.worker
        worker_id = self.worker_id
        unilogic = self.unilogic
        telemetry = self.telemetry
        while True:
            item = yield self.queue.pop()
            if item is _SHUTDOWN:
                return self.tasks_done
            if self.crashed:
                self._strand(item)
                return None
            if item.done.triggered:
                # stale speculative duplicate: another execution already
                # finished this item; just balance the queue accounting
                self.queue.mark_done()
                continue
            self.current_item = item
            item.started_at = sim.now
            span_name = None
            if self.tracer is not None:
                span_name = f"{item.task.function}#{item.task.task_id}"
                self.tracer.begin(lane, span_name)

            task = item.task
            kernel = self.registry.kernel(task.function)
            # the tenant's record, looked up once: its policy decides SW
            # vs. HW, and the completed call is accounted against it
            job = self.jobs.record(item.job_id)
            device = job.policy.decide_device(self, task)
            if telemetry is not None:
                attrs = dict(
                    task=task.task_id,
                    function=task.function,
                    device=device,
                    items=task.items,
                    queue_depth=self.queue.depth,
                    job=item.job_id,
                )
                if task.tags:
                    # provenance: which serving requests ride this task
                    attrs["requests"] = task.tags.get("requests")
                telemetry.event("scheduler.decision", worker.name, **attrs)
            start = sim.now
            if device == "hw":
                self.hw_chosen += 1
                bpi = max(1, int(kernel.bytes_per_iteration()))
                try:
                    yield from unilogic.invoke(
                        task.function,
                        caller_worker=worker_id,
                        items=task.items,
                        data_worker=task.data_worker,
                        bytes_per_item=bpi,
                        job=item.job_id,
                    )
                    host_worker, region = unilogic.nearest_region(
                        task.function, task.data_worker
                    ) or (worker_id, None)
                    energy = (
                        region.module.energy_pj(task.items)
                        if region is not None
                        else 0.0
                    )
                except AcceleratorLost:
                    # the hosting region died while the call was in
                    # flight (fabric fault / Worker crash): degrade to
                    # software
                    self.hw_chosen -= 1
                    self.hw_fallbacks += 1
                    device = "sw"
                    item.fell_back = True
                    if telemetry is not None:
                        attrs = dict(
                            task=task.task_id,
                            function=task.function,
                            job=item.job_id,
                        )
                        if task.tags:
                            attrs["requests"] = task.tags.get("requests")
                        telemetry.event(
                            "scheduler.accel_lost", worker.name, **attrs
                        )
            if device == "sw":
                self.sw_chosen += 1
                # software runs here; pull remote data through UNIMEM first
                if task.data_worker != worker_id:
                    yield from self.node.transfer(
                        task.data_worker,
                        worker_id,
                        task.input_bytes,
                        TransactionType.DMA,
                    )
                energy = yield from worker.run_software(kernel, task.items)

            latency = sim.now - start
            item.device_used = device
            item.latency_ns = latency
            self.history.append(
                ExecutionRecord(
                    task.function, device, worker_id, task.items,
                    latency, energy, sim.now, item.job_id,
                )
            )
            # tenant-side accounting (job 0 = the implicit legacy job)
            job.note_done(device, energy)
            worker.note_job_call(item.job_id)

            if self.tracer is not None and span_name is not None:
                self.tracer.end(lane, span_name)
            self.current_item = None
            if self.crashed:
                # the crash hit mid-task: the result is lost with the Worker
                if self.supervisor is not None:
                    self.supervisor.work_lost_ns += item.latency_ns
                self.jobs.record(item.job_id).work_lost_ns += item.latency_ns
                self._strand(item)
                return None
            self.queue.mark_done()
            self.tasks_done += 1
            if not item.done.triggered:
                item.done.succeed(None)
