"""The Execution Engine: the mechanism layer of the runtime.

This is the top box of Fig. 5: it owns the work-distribution step, the
per-Worker schedulers, the Execution History, the prediction models and
the reconfiguration daemon.  Since the multi-tenant split it is
*job-agnostic*: every task carries a job id, device/placement decisions
are delegated to the per-job :class:`~repro.core.runtime.policy.
SchedulingPolicy` through the :class:`~repro.core.runtime.jobs.
JobRegistry`, and streams of jobs are admitted by the
:class:`~repro.core.runtime.jobs.JobManager` session layer.
``run_graph`` remains as the thin single-job wrapper (bit-identical to
the pre-multi-tenant runtime).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.apps.taskgraph import Task, TaskGraph
from repro.core.compute_node import ComputeNode
from repro.core.runtime.daemon import ReconfigurationDaemon
from repro.core.runtime.distribution import WorkDistributor
from repro.core.runtime.faults import FaultTolerancePolicy, TaskSupervisor
from repro.core.runtime.history import ExecutionHistory
from repro.core.runtime.jobs import JobManager, JobRegistry
from repro.core.runtime.lazy import LazyStatusTracker, LocalWorkQueue
from repro.core.runtime.policy import (
    DistributionPolicy,
    GreedyHardwarePolicy,
    PolicyConfig,
)
from repro.core.runtime.report import RunReport
from repro.core.runtime.scheduler import WorkerScheduler, WorkItem
from repro.core.unilogic import UnilogicDomain
from repro.core.worker import FunctionRegistry
from repro.fabric.module_library import ModuleLibrary
from repro.sim import Process, spawn

if TYPE_CHECKING:
    from repro.core.runtime.models import DeviceSelector

__all__ = ["ExecutionEngine", "RunReport", "DistributionPolicy"]


class ExecutionEngine:
    """Wires queues, schedulers, tracker, distributor and daemon together."""

    def __init__(
        self,
        node: ComputeNode,
        registry: FunctionRegistry,
        library: Optional[ModuleLibrary] = None,
        use_daemon: bool = True,
        daemon_period_ns: float = 500_000.0,
        lazy_status: bool = True,
        status_refresh_ns: float = 10_000.0,
        selector: Optional[DeviceSelector] = None,
        retrain_every: int = 0,
        allow_hardware: bool = True,
        energy_weight: float = 0.0,
        distribution_policy: PolicyConfig = PolicyConfig(),
        telemetry=None,
        fault_tolerance: Optional[FaultTolerancePolicy] = None,
    ) -> None:
        self.node = node
        self.registry = registry
        self.library = library if library is not None else ModuleLibrary()
        self.history = ExecutionHistory()
        self.unilogic = UnilogicDomain(node)
        self.selector = selector
        self.retrain_every = retrain_every
        self.telemetry = telemetry

        # the policy layer: one shared config, and the per-job registry
        # the mechanism reads decisions through (it holds the default)
        self.policy_config = distribution_policy
        self.jobs = JobRegistry(GreedyHardwarePolicy(distribution_policy))

        self.queues: List[LocalWorkQueue] = [
            LocalWorkQueue(node.sim, w.worker_id) for w in node.workers
        ]
        self.tracker = LazyStatusTracker(
            node.sim, self.queues, status_refresh_ns, lazy=lazy_status
        )
        self.distributor = WorkDistributor(
            node, self.queues, self.tracker, distribution_policy, jobs=self.jobs
        )
        self.distributor.unilogic = self.unilogic
        self.schedulers: List[WorkerScheduler] = [
            WorkerScheduler(
                node,
                w.worker_id,
                self.queues[w.worker_id],
                self.unilogic,
                registry,
                self.history,
                selector=selector,
                energy_weight=energy_weight,
                allow_hardware=allow_hardware,
                telemetry=self.telemetry,
                jobs=self.jobs,
            )
            for w in node.workers
        ]
        self.daemon: Optional[ReconfigurationDaemon] = None
        if use_daemon:
            self.daemon = ReconfigurationDaemon(
                node,
                self.unilogic,
                self.library,
                registry,
                self.history,
                period_ns=daemon_period_ns,
                telemetry=self.telemetry,
            )
        # self-healing runtime (None = bit-identical legacy behaviour)
        self.supervisor: Optional[TaskSupervisor] = None
        self.fault_injector = None
        self.recovery = None
        if fault_tolerance is not None:
            self.supervisor = TaskSupervisor(
                self, fault_tolerance, telemetry=self.telemetry
            )
            for s in self.schedulers:
                s.supervisor = self.supervisor
            from repro.core.resilience import FaultInjector, RecoveryManager

            self.fault_injector = FaultInjector(node)
            self.recovery = RecoveryManager(
                node,
                self.unilogic,
                self.library,
                self.fault_injector,
                check_period_ns=fault_tolerance.heartbeat_period_ns,
                telemetry=self.telemetry,
            )
        if self.telemetry is not None:
            from repro.telemetry.wiring import attach_engine

            attach_engine(self.telemetry, self, prefix=f"{node.name}.runtime")

        self._scheduler_procs: List[Process] = []
        self._daemon_proc: Optional[Process] = None
        self._supervisor_proc: Optional[Process] = None
        self._recovery_proc: Optional[Process] = None
        self._started = False

    # ------------------------------------------------------------------
    # composable lifecycle (driven by JobManager)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the scheduler loops (and daemon).  Idempotent."""
        if self._started:
            return
        sim = self.node.sim
        self._scheduler_procs = [
            spawn(sim, s.run(), name=f"{self.node.name}.sched{i}")
            for i, s in enumerate(self.schedulers)
        ]
        if self.daemon is not None:
            self._daemon_proc = spawn(sim, self.daemon.run(), name=f"{self.node.name}.daemon")
        if self.supervisor is not None:
            self._supervisor_proc = spawn(
                sim, self.supervisor.run(), name=f"{self.node.name}.supervisor"
            )
        if self.recovery is not None:
            self._recovery_proc = spawn(
                sim, self.recovery.run(), name=f"{self.node.name}.recovery"
            )
        self._started = True

    def submit_task(self, task: Task, job_id: int = 0) -> WorkItem:
        """Place one task (via its job's policy) onto a Worker's queue."""
        worker = self.distributor.choose_worker(task, observer=0, job=job_id)
        return self.schedulers[worker].submit(task, job_id=job_id)

    def submit_layer(
        self, tasks: Sequence[Task], job_id: int = 0
    ) -> List[WorkItem]:
        """Distribute one dependence layer onto the workers' queues."""
        return [self.submit_task(task, job_id=job_id) for task in tasks]

    def stop(self) -> None:
        """Shut the scheduler loops, the daemon and the FT machinery down."""
        if not self._started:
            return
        for s in self.schedulers:
            s.shutdown()
        if self.daemon is not None:
            self.daemon.stop()
        if self._daemon_proc is not None and self._daemon_proc.alive:
            self._daemon_proc.interrupt("run complete")
        if self.supervisor is not None:
            self.supervisor.stop()
        if self._supervisor_proc is not None and self._supervisor_proc.alive:
            self._supervisor_proc.interrupt("run complete")
        if self.recovery is not None:
            self.recovery.stop()
        if self._recovery_proc is not None and self._recovery_proc.alive:
            self._recovery_proc.interrupt("run complete")
        self._started = False

    # ------------------------------------------------------------------
    # fault hooks (driven by repro.chaos or directly by tests)
    # ------------------------------------------------------------------
    def crash_worker(self, worker_id: int, permanent: bool = True) -> None:
        """Crash-stop one Worker's runtime *now*.  ``permanent`` crashes
        also break its fabric regions so the RecoveryManager reloads the
        lost modules onto survivors; transient crashes leave the fabric
        intact (UNILOGIC keeps serving its blocks domain-wide)."""
        scheduler = self.schedulers[worker_id]
        if scheduler.crashed:
            return
        scheduler.fail()
        if self.supervisor is not None:
            self.supervisor.notify_crash(worker_id, permanent)
        if permanent and self.fault_injector is not None:
            self.fault_injector.inject_worker_fault(worker_id)
        if self.telemetry is not None:
            self.telemetry.event(
                "runtime.worker_crash",
                f"{self.node.name}.runtime",
                worker=worker_id,
                permanent=permanent,
            )

    def recover_worker(self, worker_id: int) -> None:
        """Bring a transiently-failed Worker back: clear the crash flag,
        rejoin the placement pool, respawn the scheduler loop if it died."""
        scheduler = self.schedulers[worker_id]
        if not scheduler.crashed:
            return
        scheduler.restore()
        self.distributor.mark_up(worker_id)
        if self.supervisor is not None:
            self.supervisor.notify_recover(worker_id)
        # re-queue anything stranded after the failure was already
        # detected (a placement that landed on the dark Worker and woke
        # its dying loop): drain_pending() only runs at detection time,
        # so without this the item's done signal never fires
        for item in scheduler.stranded:
            if not item.done.triggered and not item.redispatched:
                scheduler.resubmit(item)
        scheduler.stranded = []
        if self._started:
            proc = self._scheduler_procs[worker_id]
            if not proc.alive:
                self._scheduler_procs[worker_id] = spawn(
                    self.node.sim,
                    scheduler.run(),
                    name=f"{self.node.name}.sched{worker_id}",
                )
        if self.telemetry is not None:
            self.telemetry.event(
                "runtime.worker_rejoin",
                f"{self.node.name}.runtime",
                worker=worker_id,
            )

    # ------------------------------------------------------------------
    def run_graph(self, graph: TaskGraph, dataflow: bool = False) -> RunReport:
        """Run ``graph`` to completion; returns the :class:`RunReport`.

        A thin single-job wrapper over the :class:`~repro.core.runtime.
        jobs.JobManager` session layer, with fair-share admission
        disabled so the event sequence is bit-identical to the
        pre-multi-tenant runtime.  ``dataflow=True`` replaces the
        layer-barrier driver with dependence-triggered dispatch (usually
        a makespan win on DAGs with uneven layers).
        """
        sim = self.node.sim
        start = sim.now
        self.start()
        if self.telemetry is not None:
            self.telemetry.event(
                "runtime.run_start",
                f"{self.node.name}.runtime",
                tasks=len(graph),
                dataflow=dataflow,
            )
        manager = JobManager(self, fair_share=False)
        handle = manager.submit_job(graph, dataflow=dataflow)
        if self.telemetry is not None:

            def run_end() -> None:
                self.telemetry.event(
                    "runtime.run_end",
                    f"{self.node.name}.runtime",
                    tasks=len(graph),
                    makespan_ns=sim.now - start,
                )

            handle.on_done = run_end
        sim.run()
        end = handle.finished_at if handle.finished_at is not None else sim.now
        return self._report(graph, end - start)

    # ------------------------------------------------------------------
    def _report(self, graph: TaskGraph, makespan: float) -> RunReport:
        sw = sum(s.sw_chosen for s in self.schedulers)
        hw = sum(s.hw_chosen for s in self.schedulers)
        availability: Dict[str, object] = {}
        if self.supervisor is not None:
            sup = self.supervisor
            fabric_faults = (
                len(self.fault_injector.records)
                if self.fault_injector is not None
                else 0
            )
            availability = dict(
                faults_injected=len(sup.failures) + fabric_faults,
                worker_failures=len(sup.failures),
                tasks_retried=sup.tasks_retried,
                tasks_unrecovered=len(sup.unrecovered),
                mean_detection_ns=sup.mean_detection_ns(),
                mean_recovery_ns=sup.mean_recovery_ns(),
                work_lost_ns=sup.work_lost_ns,
                fabric_recoveries=(
                    self.recovery.recoveries if self.recovery is not None else 0
                ),
                fabric_recovery_failures=(
                    self.recovery.failed_recoveries
                    if self.recovery is not None
                    else 0
                ),
            )
        return RunReport(
            makespan_ns=makespan,
            tasks=len(graph),
            sw_calls=sw,
            hw_calls=hw,
            energy_pj=self.node.ledger.total_pj(),
            energy_breakdown=self.node.ledger.breakdown(depth=2),
            reconfigurations=sum(
                w.reconfig.reconfigurations for w in self.node.workers
            ),
            status_messages=self.tracker.status_messages,
            placement_locality=self.distributor.locality_fraction(),
            device_mix={"sw": sw, "hw": hw},
            **availability,
        )
