"""The session/job layer: streams of jobs multiplexed onto one machine.

The paper's runtime (Fig. 2/5) serves *streams* of tasks from many
applications over shared reconfigurable Workers.  This module is that
layer: a :class:`JobManager` admits a stream of jobs onto one simulated
machine's :class:`~repro.core.runtime.engine.ExecutionEngine`, runs them
concurrently over the shared Workers, and rolls per-job
:class:`~repro.core.runtime.report.RunReport` s up into a
:class:`~repro.core.runtime.report.MachineReport`.

Three pieces:

- :class:`JobRecord` / :class:`JobRegistry` -- the *mechanism-side*
  per-tenant accounting (which policy decides for a task, how many
  calls/joules each tenant consumed).  Schedulers, the distributor and
  the supervisor only ever see job *ids* on work items and write their
  accounting through the registry -- they stay job-agnostic.
- :class:`JobHandle` -- the *session-side* view of one submitted job:
  state, completion signal, fair-share admission bookkeeping, and the
  final per-job report.
- :class:`JobManager` -- admission control plus one callback-driven
  driver per job.  ``submit_job(graph, policy, priority)`` returns
  immediately with a handle; drivers respect DAG dependences
  (layer-barrier or dataflow dispatch) and a weighted fair share of the
  machine's task slots, so a heavy tenant cannot starve a light one.

The drivers spawn no simulation processes.  Each is plain code that
keeps its place between callbacks, and each callback is queued at the
lane position where a driver process would have been resumed: the job
starts one lane slot after submission, a layer barrier or a dataflow
task's dependences resume it from the same :class:`~repro.sim.AllOf`,
and a dataflow task's completion fires its signal one slot after the
work item's.  The kernel therefore fires the same events, at the same
times and priorities and in the same order, as one process per job and
per dataflow task would.

Fair-share admission: the machine offers ``slots_per_worker x workers``
concurrent task slots.  Each job's share is fixed when its driver starts,
as ``max(1, total_slots * priority / sum(active priorities))``.  A task
holds its job's slot from submission until its completion signal fires
-- including across supervisor retries after a Worker crash, so one
job's recovery never consumes another job's slots.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.core.runtime.policy import PolicyConfig, SchedulingPolicy, make_policy
from repro.core.runtime.report import JobOutcome, MachineReport, RunReport
from repro.sim import AllOf, Signal

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.apps.taskgraph import Task, TaskGraph
    from repro.core.runtime.engine import ExecutionEngine
    from repro.core.runtime.scheduler import WorkItem


# ----------------------------------------------------------------------
# mechanism-side tenant accounting
# ----------------------------------------------------------------------


@dataclass
class JobRecord:
    """Per-tenant counters the mechanism layer writes through.

    Job 0 is the implicit legacy tenant: untagged ``submit_layer`` /
    ``submit_task`` calls land here under the engine's default policy.
    """

    job_id: int
    policy: SchedulingPolicy
    priority: int = 1
    tasks_done: int = 0
    sw_calls: int = 0
    hw_calls: int = 0
    energy_pj: float = 0.0
    energy_by_device: Dict[str, float] = field(default_factory=dict)
    placements_local: int = 0
    placements_remote: int = 0
    tasks_retried: int = 0
    tasks_unrecovered: int = 0
    work_lost_ns: float = 0.0

    def note_done(self, device: str, energy_pj: float) -> None:
        """One completed call of this tenant (scheduler-side hook)."""
        self.tasks_done += 1
        if device == "hw":
            self.hw_calls += 1
        else:
            self.sw_calls += 1
        self.energy_pj += energy_pj
        self.energy_by_device[device] = (
            self.energy_by_device.get(device, 0.0) + energy_pj
        )

    def note_placement(self, local: bool) -> None:
        if local:
            self.placements_local += 1
        else:
            self.placements_remote += 1

    def locality_fraction(self) -> float:
        total = self.placements_local + self.placements_remote
        return self.placements_local / total if total else 1.0


class JobRegistry:
    """job id -> :class:`JobRecord`; the one table the mechanism reads.

    Holds the engine's default policy; the session layer registers
    tenants.  An unregistered id (job 0 of an untagged submission, or a
    bare scheduler's) gets a record under the default policy on first
    use, so a lookup never key-errors.
    """

    def __init__(self, default_policy: SchedulingPolicy) -> None:
        self.default_policy = default_policy
        self._records: Dict[int, JobRecord] = {}

    def register(
        self, job_id: int, policy: SchedulingPolicy, priority: int = 1
    ) -> JobRecord:
        if job_id in self._records and self._records[job_id].tasks_done:
            raise ValueError(f"job {job_id} already registered and active")
        record = JobRecord(job_id, policy, priority)
        self._records[job_id] = record
        return record

    def record(self, job_id: int) -> JobRecord:
        rec = self._records.get(job_id)
        if rec is None:
            rec = JobRecord(job_id, self.default_policy)
            self._records[job_id] = rec
        return rec

    def policy(self, job_id: int) -> SchedulingPolicy:
        return self.record(job_id).policy

    def __iter__(self):
        return iter(self._records.values())


# ----------------------------------------------------------------------
# session-side handles
# ----------------------------------------------------------------------


class JobState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"


@dataclass
class JobHandle:
    """The session-layer view of one submitted job."""

    job_id: int
    graph: "TaskGraph"
    policy: SchedulingPolicy
    priority: int
    dataflow: bool
    record: JobRecord
    done: Signal
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    state: JobState = JobState.PENDING
    report: Optional[RunReport] = None
    # fair-share admission bookkeeping
    share: Optional[int] = None          # None = unthrottled
    in_flight: int = 0
    peak_in_flight: int = 0
    on_done: Optional[Callable[[], None]] = None
    # the WorkItems this job dispatched, in dispatch order -- the serving
    # layer reads execution timing/device off them at completion time
    items: List["WorkItem"] = field(default_factory=list)
    # checkpoint restore: graph indices already completed in a previous
    # incarnation of this job -- the drivers skip them (dependences are
    # treated as satisfied) and only the lost frontier is replayed
    completed: frozenset = frozenset()
    tasks_skipped: int = 0

    @property
    def finished(self) -> bool:
        return self.state is JobState.DONE

    @property
    def latency_ns(self) -> float:
        if self.finished_at is None:
            return 0.0
        return self.finished_at - self.submitted_at

    def completed_indices(self) -> List[int]:
        """Sorted graph indices of every task this job has finished.

        The progress a checkpoint records: the ``completed`` set a
        restored job started with, plus every work item whose done
        signal fired without a failure.
        """
        index_of = {t.task_id: i for i, t in enumerate(self.graph.tasks)}
        done = set(self.completed)
        for item in self.items:
            if item.done.triggered and not item.failed:
                idx = index_of.get(item.task.task_id)
                if idx is not None:
                    done.add(idx)
        return sorted(done)


# ----------------------------------------------------------------------
# the job manager
# ----------------------------------------------------------------------


class JobManager:
    """Admits a stream of jobs onto one engine's shared Workers.

    ``fair_share=False`` disables admission throttling entirely, which
    is the legacy single-job path ``ExecutionEngine.run_graph`` rides --
    bit-identical to the pre-multi-tenant runtime.

    Jobs run without simulation processes.  ``submit_job`` queues the
    job's start one lane slot later, and a driver (:class:`_LayerDriver`
    or :class:`_DataflowDriver`) then dispatches its tasks as plain
    callbacks on completion signals.  Admission has no processes either.
    A driver at its job's share parks its continuation on a blocked list.
    Every slot release queues one re-check per parked driver, in blocking
    order -- the lane positions a broadcast wake-up of every blocked
    driver would take -- and each re-check continues its driver only if
    that driver's job is now under its share.  The fired event stream is
    therefore that of one process per job behind a broadcast gate, while
    no process is spawned and the drivers that stay blocked never run.
    """

    def __init__(
        self,
        engine: "ExecutionEngine",
        slots_per_worker: int = 2,
        fair_share: bool = True,
        auto_stop: bool = True,
    ) -> None:
        if slots_per_worker < 1:
            raise ValueError("slots_per_worker must be >= 1")
        self.engine = engine
        self.sim = engine.node.sim
        self.fair_share = fair_share
        self.auto_stop = auto_stop
        self.total_slots = slots_per_worker * len(engine.node.workers)
        self.handles: List[JobHandle] = []
        self._ids = itertools.count(1)  # 0 is the legacy/default tenant
        self._active = 0
        # sum of the priorities of every submitted job not yet DONE
        self._active_priority = 0
        # (job, resume) of every driver parked on admission, in
        # blocking order
        self._blocked: List[Tuple[JobHandle, Callable[[Any], None]]] = []
        self._draining = False
        # built-in policies by name, built on first use (they hold only
        # the engine's PolicyConfig)
        self._policies: Dict[str, SchedulingPolicy] = {}

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def _resolve_policy(
        self, policy: Union[None, str, SchedulingPolicy]
    ) -> SchedulingPolicy:
        if policy is None:
            return self.engine.jobs.default_policy
        if isinstance(policy, str):
            resolved = self._policies.get(policy)
            if resolved is None:
                resolved = make_policy(policy, self.engine.policy_config)
                self._policies[policy] = resolved
            return resolved
        return policy

    def submit_job(
        self,
        graph: "TaskGraph",
        policy: Union[None, str, SchedulingPolicy] = None,
        priority: int = 1,
        dataflow: bool = False,
        completed: Optional[frozenset] = None,
    ) -> JobHandle:
        """Admit one job onto the machine; returns its handle.

        ``policy`` may be a :class:`SchedulingPolicy` instance, a
        built-in policy name (``greedy-hw``, ``energy``, ``locality``),
        or ``None`` for the engine's default.  ``priority`` weights the
        job's fair share of the machine's task slots.  ``completed`` --
        graph indices (positions in ``graph.tasks``) already finished in
        a checkpointed earlier incarnation -- restricts dispatch to the
        remaining tasks (checkpoint restore replays only lost work).
        """
        if priority < 1:
            raise ValueError(f"priority must be >= 1, got {priority}")
        if self._draining:
            raise RuntimeError(
                "JobManager is draining; no new jobs are admitted"
            )
        done_indices = frozenset(completed or ())
        if done_indices and (min(done_indices) < 0 or max(done_indices) >= len(graph.tasks)):
            raise ValueError("completed indices out of range for this graph")
        resolved = self._resolve_policy(policy)
        job_id = next(self._ids)
        record = self.engine.jobs.register(job_id, resolved, priority)
        handle = JobHandle(
            job_id=job_id,
            graph=graph,
            policy=resolved,
            priority=priority,
            dataflow=dataflow,
            record=record,
            done=Signal(self.sim),
            submitted_at=self.sim.now,
            completed=done_indices,
        )
        self.handles.append(handle)
        self._active += 1
        self._active_priority += priority
        self.engine.start()
        self.sim._soon(self._start, handle)
        if self.engine.telemetry is not None:
            self.engine.telemetry.event(
                "runtime.job_submitted",
                f"{self.engine.node.name}.runtime",
                job=job_id,
                policy=resolved.name,
                priority=priority,
                tasks=len(graph),
            )
        return handle

    # ------------------------------------------------------------------
    # fair-share admission
    # ------------------------------------------------------------------
    def _fair_share_of(self, job: JobHandle) -> int:
        return max(1, (self.total_slots * job.priority) // self._active_priority)

    def _track(self, job: JobHandle, item: "WorkItem") -> None:
        """Account one admitted task against the job's slots; the slot
        frees when the item's completion signal fires -- retries of the
        same item keep holding the same slot.

        The release callback subscribes to ``item.done`` one lane slot
        later (:meth:`_arm`), not now, so it queues behind the waiters
        the driver adds in the meantime.
        """
        if job.share is None:
            return
        job.in_flight += 1
        job.peak_in_flight = max(job.peak_in_flight, job.in_flight)
        self.sim._soon(self._arm, (job, item))

    def _arm(self, entry: Tuple[JobHandle, "WorkItem"]) -> None:
        job, item = entry

        def release(_item: "WorkItem") -> None:
            job.in_flight -= 1
            self._kick()

        item.done._subscribe(self.sim, release)

    def abandon(self) -> None:
        """Forget the pending work of a run paused for good: the drivers
        parked on admission and the completion waiters of every
        dispatched item, which close over this manager and its drivers.
        With ``Simulator.close`` (which ends the suspended processes)
        it frees a paused run by reference counting; a finished run
        holds neither."""
        self._blocked = []
        for job in self.handles:
            for item in job.items:
                item.done.drop_waiters()

    def _kick(self) -> None:
        """A slot freed: queue one re-check per driver blocked on
        admission, in the order they blocked."""
        blocked = self._blocked
        if not blocked:
            return
        self._blocked = []
        self.sim._soon_each(self._recheck, blocked)

    def _recheck(self, entry: Tuple[JobHandle, Callable[[Any], None]]) -> None:
        """Continue one blocked driver if its job is now under its share,
        else park it again behind the drivers blocked since the kick."""
        job, resume = entry
        if job.in_flight >= job.share:
            self._blocked.append(entry)
        else:
            resume(None)

    def _dispatch(self, job: JobHandle, task: "Task") -> "WorkItem":
        """Submit one admitted task of ``job`` and hold its slot."""
        item = self.engine.submit_task(task, job_id=job.job_id)
        self._track(job, item)
        job.items.append(item)
        return item

    # ------------------------------------------------------------------
    # job lifecycle
    # ------------------------------------------------------------------
    def _start(self, job: JobHandle) -> None:
        """The job's first lane slot: fix its share and start its driver."""
        engine = self.engine
        job.started_at = self.sim.now
        job.state = JobState.RUNNING
        if self.fair_share:
            job.share = self._fair_share_of(job)
        if engine.telemetry is not None:
            engine.telemetry.event(
                "runtime.job_start",
                f"{engine.node.name}.runtime",
                job=job.job_id,
                policy=job.policy.name,
                share=job.share,
            )
        if job.dataflow:
            _DataflowDriver(self, job).start()
        else:
            _LayerDriver(self, job).advance()

    def _finish(self, job: JobHandle) -> None:
        """The driver dispatched and saw complete every task of ``job``."""
        engine = self.engine
        job.finished_at = self.sim.now
        job.state = JobState.DONE
        self._active_priority -= job.priority
        job.report = self._job_report(job)
        if engine.telemetry is not None:
            engine.telemetry.event(
                "runtime.job_end",
                f"{engine.node.name}.runtime",
                job=job.job_id,
                policy=job.policy.name,
                latency_ns=job.latency_ns,
                tasks=len(job.graph),
                retried=job.record.tasks_retried,
            )
        if job.on_done is not None:
            job.on_done()
        job.done.succeed(None)
        self._active -= 1
        if self._active == 0 and self.auto_stop:
            engine.stop()

    def _retrain(self, completed: int, finished: int) -> None:
        """A layer of ``finished`` tasks completed, ``completed`` in all:
        retrain the selector each time ``retrain_every`` more are done."""
        engine = self.engine
        if not (engine.retrain_every and engine.selector is not None):
            return
        if completed // engine.retrain_every != (
            completed - finished
        ) // engine.retrain_every:
            engine.selector.train(engine.history)
            if engine.telemetry is not None:
                engine.telemetry.event(
                    "runtime.retrain",
                    f"{engine.node.name}.runtime",
                    completed=completed,
                    history=len(engine.history),
                )

    # ------------------------------------------------------------------
    # drain
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self) -> None:
        """Stop admitting jobs: later :meth:`submit_job` calls raise
        ``RuntimeError``, while submitted work runs to completion.

        The quiesce step of the service daemon's ``drain``/``shutdown``
        commands, which then step the simulator until every handle is
        finished.
        """
        self._draining = True

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _job_report(self, job: JobHandle) -> RunReport:
        """Roll one tenant's counters into a per-job :class:`RunReport`.

        Machine-shared counters (reconfigurations, status traffic,
        machine-wide failure detection) live on the
        :class:`MachineReport`, not on any single tenant.
        """
        rec = job.record
        return RunReport(
            makespan_ns=job.latency_ns,
            tasks=len(job.graph),
            sw_calls=rec.sw_calls,
            hw_calls=rec.hw_calls,
            energy_pj=rec.energy_pj,
            energy_breakdown=dict(rec.energy_by_device),
            reconfigurations=0,
            status_messages=0,
            placement_locality=rec.locality_fraction(),
            device_mix={"sw": rec.sw_calls, "hw": rec.hw_calls},
            tasks_retried=rec.tasks_retried,
            tasks_unrecovered=rec.tasks_unrecovered,
            work_lost_ns=rec.work_lost_ns,
        )

    def collect(self) -> MachineReport:
        """Build the multi-tenant roll-up from everything run so far."""
        engine = self.engine
        outcomes = []
        for job in self.handles:
            outcomes.append(
                JobOutcome(
                    job_id=job.job_id,
                    policy=job.policy.name,
                    priority=job.priority,
                    submitted_at=job.submitted_at,
                    started_at=job.started_at,
                    finished_at=job.finished_at,
                    report=(
                        job.report
                        if job.report is not None
                        else self._job_report(job)
                    ),
                )
            )
        finished = [j.finished_at for j in self.handles if j.finished_at is not None]
        submitted = [j.submitted_at for j in self.handles]
        makespan = (max(finished) - min(submitted)) if finished else 0.0
        sup = engine.supervisor
        return MachineReport(
            makespan_ns=makespan,
            jobs=outcomes,
            energy_pj=engine.node.ledger.total_pj(),
            reconfigurations=sum(
                w.reconfig.reconfigurations for w in engine.node.workers
            ),
            status_messages=engine.tracker.status_messages,
            worker_failures=len(sup.failures) if sup is not None else 0,
            mean_detection_ns=sup.mean_detection_ns() if sup is not None else 0.0,
            mean_recovery_ns=sup.mean_recovery_ns() if sup is not None else 0.0,
        )

    def run(self) -> MachineReport:
        """Run the simulation until every submitted job completes, then
        return the :class:`MachineReport` roll-up."""
        self.sim.run()
        return self.collect()


# ----------------------------------------------------------------------
# drivers: plain callbacks at a driver process's lane positions
# ----------------------------------------------------------------------


def _skipped_ids(job: JobHandle) -> frozenset:
    """Task ids of the graph indices a restored job already completed."""
    if not job.completed:
        return frozenset()
    return frozenset(
        t.task_id for i, t in enumerate(job.graph.tasks) if i in job.completed
    )


class _LayerDriver:
    """Dispatch layer by layer, honouring DAG dependences by barrier.

    The driver keeps its place -- the current layer and the index of the
    next task in it -- across callbacks.  :meth:`advance` dispatches from
    there until the job reaches its share (it parks itself on the
    manager's blocked list, and a passing re-check calls it again) or
    the layer is dispatched (the last of the layer's done signals runs
    :meth:`_barrier` through an :class:`AllOf`).  Checkpoint-completed
    tasks are skipped; the barrier waits only on what was dispatched.
    """

    __slots__ = ("manager", "job", "skip", "layers", "layer", "index",
                 "items", "completed")

    def __init__(self, manager: JobManager, job: JobHandle) -> None:
        self.manager = manager
        self.job = job
        self.skip = _skipped_ids(job)
        self.layers = job.graph.layers()
        self.layer = 0
        self.index = 0
        self.items: List["WorkItem"] = []  # dispatched in this layer
        self.completed = 0

    def advance(self, _value: Any = None) -> None:
        manager, job, skip = self.manager, self.job, self.skip
        while self.layer < len(self.layers):
            layer = self.layers[self.layer]
            while self.index < len(layer):
                task = layer[self.index]
                if task.task_id in skip:
                    job.tasks_skipped += 1
                elif job.share is not None and job.in_flight >= job.share:
                    manager._blocked.append((job, self.advance))
                    return
                else:
                    self.items.append(manager._dispatch(job, task))
                self.index += 1
            self.layer += 1
            self.index = 0
            if self.items:
                AllOf([item.done for item in self.items])._subscribe(
                    manager.sim, self._barrier
                )
                return
        manager._finish(job)

    def _barrier(self, _values: Any) -> None:
        finished = len(self.items)
        self.items = []
        self.completed += finished
        self.manager._retrain(self.completed, finished)
        self.advance()


class _DataflowDriver:
    """Dependence-triggered dispatch: every task is released the moment
    its own predecessors complete -- no layer barrier, so independent
    chains pipeline across layers.

    Each task has a done :class:`Signal` and a start callback queued in
    graph order.  A task's start waits on its dependences' signals
    through an :class:`AllOf`, then on admission, then dispatches; its
    work item's completion fires the task's signal one lane slot later.
    A checkpoint-completed task fires its signal at its start slot.  The
    job finishes when the :class:`AllOf` over every task's signal does.
    """

    __slots__ = ("manager", "job", "signals", "skip")

    def __init__(self, manager: JobManager, job: JobHandle) -> None:
        self.manager = manager
        self.job = job
        self.skip = _skipped_ids(job)
        sim = manager.sim
        self.signals = {t.task_id: Signal(sim) for t in job.graph.tasks}

    def start(self) -> None:
        sim = self.manager.sim
        tasks = self.job.graph.tasks
        sim._soon_each(self._start_task, tasks)
        AllOf([self.signals[t.task_id] for t in tasks])._subscribe(
            sim, self._all_done
        )

    def _start_task(self, task: "Task") -> None:
        if task.task_id in self.skip:
            self.job.tasks_skipped += 1
            self.signals[task.task_id].succeed(None)
            return
        if not task.deps:
            self._admit(task)
            return

        def ready(_values: Any) -> None:
            self._admit(task)

        AllOf([self.signals[d] for d in task.deps])._subscribe(
            self.manager.sim, ready
        )

    def _admit(self, task: "Task") -> None:
        manager, job = self.manager, self.job
        if job.share is not None and job.in_flight >= job.share:

            def admitted(_value: Any) -> None:
                self._admit(task)

            manager._blocked.append((job, admitted))
            return
        item = manager._dispatch(job, task)
        item.done._subscribe(manager.sim, self.signals[task.task_id].succeed)

    def _all_done(self, _values: Any) -> None:
        self.manager._finish(self.job)
