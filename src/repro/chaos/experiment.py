"""End-to-end chaos experiments: baseline run, fault run, verdict.

A chaos experiment runs the same workload twice on identical machines:

1. **baseline** -- fault tolerance off, no faults (today's behaviour),
2. **chaos** -- the self-healing runtime armed, with a seeded fault
   plan injected mid-graph (the window is derived from the baseline
   makespan, so "mid-graph" is deterministic, not guessed).

The :class:`ChaosReport` then answers the only question that matters:
did every task still complete (result integrity), and what did survival
cost (makespan degradation, retries, work lost, time-to-recover)?
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.apps.taskgraph import graph_signature
from repro.chaos.controller import ChaosConfig, ChaosController
from repro.core.runtime import (
    FaultTolerancePolicy,
    MachineReport,
    RunReport,
)
from repro.experiments import build_engine, layered_graph
from repro.presets import compiled_suite


@dataclass(frozen=True)
class ChaosPreset:
    """One named chaos scenario: workload + machine + fault mix."""

    node: str                   # repro.presets.NODE_PRESETS key
    layers: int = 6
    width: int = 10
    graph_seed: int = 1
    worker_crashes: int = 1
    transient_fraction: float = 0.0
    worker_downtime_ns: float = 300_000.0
    link_degradations: int = 1
    link_drop_rate: float = 0.05
    link_latency_multiplier: float = 4.0
    window_fraction: Tuple[float, float] = (0.2, 0.6)
    heartbeat_period_ns: float = 20_000.0
    max_attempts: int = 4

    def fault_tolerance(self) -> FaultTolerancePolicy:
        """The self-healing runtime this scenario's faulted runs arm."""
        return FaultTolerancePolicy(
            heartbeat_period_ns=self.heartbeat_period_ns,
            max_attempts=self.max_attempts,
        )

    def fault_config(self, baseline_makespan_ns: float) -> ChaosConfig:
        """The scenario's fault mix, windowed on the fault-free makespan
        (so "mid-graph" is derived, not guessed)."""
        lo, hi = self.window_fraction
        return ChaosConfig(
            worker_crashes=self.worker_crashes,
            transient_fraction=self.transient_fraction,
            worker_downtime_ns=self.worker_downtime_ns,
            link_degradations=self.link_degradations,
            link_drop_rate=self.link_drop_rate,
            link_latency_multiplier=self.link_latency_multiplier,
            window_ns=(lo * baseline_makespan_ns, hi * baseline_makespan_ns),
        )


#: The scenarios ``python -m repro chaos <preset>`` accepts.  ``mini``
#: is the CI smoke configuration (small and fast, transient crash so
#: the Worker also exercises the rejoin path); ``board`` is the
#: acceptance scenario from DESIGN.md -- kill one Worker mid-graph and
#: degrade one inter-Worker link on the default 4-Worker board.
CHAOS_PRESETS: Dict[str, ChaosPreset] = {
    "mini": ChaosPreset(
        node="mini", layers=4, width=6,
        transient_fraction=1.0, worker_downtime_ns=200_000.0,
        link_latency_multiplier=2.0,
    ),
    "board": ChaosPreset(node="board"),
    "board-transient": ChaosPreset(node="board", transient_fraction=1.0),
    "chassis": ChaosPreset(
        node="chassis", width=20, worker_crashes=2, link_degradations=2,
    ),
}


def chaos_preset(name: str) -> ChaosPreset:
    """Resolve one :data:`CHAOS_PRESETS` entry by name."""
    if name not in CHAOS_PRESETS:
        known = ", ".join(sorted(CHAOS_PRESETS))
        raise KeyError(f"unknown chaos preset {name!r}; choose from: {known}")
    return CHAOS_PRESETS[name]


@dataclass
class ChaosReport:
    """Verdict of one chaos experiment."""

    preset: str
    seed: int
    baseline: RunReport
    chaos: RunReport
    faults_planned: int
    faults_injected: int
    plan: List[Dict[str, Any]] = field(default_factory=list)
    injected: List[Dict[str, Any]] = field(default_factory=list)
    workload_match: bool = True

    @property
    def integrity_ok(self) -> bool:
        """Same workload, every task completed despite the faults."""
        return (
            self.workload_match
            and self.chaos.tasks == self.baseline.tasks
            and self.chaos.tasks_unrecovered == 0
        )

    @property
    def slowdown(self) -> float:
        """Chaos makespan relative to the fault-free baseline."""
        if self.baseline.makespan_ns <= 0:
            return 1.0
        return self.chaos.makespan_ns / self.baseline.makespan_ns

    def to_dict(self) -> Dict[str, Any]:
        return {
            "preset": self.preset,
            "seed": self.seed,
            "integrity_ok": self.integrity_ok,
            "slowdown": self.slowdown,
            "faults_planned": self.faults_planned,
            "faults_injected": self.faults_injected,
            "plan": self.plan,
            "injected": self.injected,
            "baseline": {
                "makespan_ns": self.baseline.makespan_ns,
                "tasks": self.baseline.tasks,
            },
            "chaos": {
                "makespan_ns": self.chaos.makespan_ns,
                "tasks": self.chaos.tasks,
                "worker_failures": self.chaos.worker_failures,
                "tasks_retried": self.chaos.tasks_retried,
                "tasks_unrecovered": self.chaos.tasks_unrecovered,
                "mean_detection_ns": self.chaos.mean_detection_ns,
                "mean_recovery_ns": self.chaos.mean_recovery_ns,
                "work_lost_ns": self.chaos.work_lost_ns,
                "fabric_recoveries": self.chaos.fabric_recoveries,
                "fabric_recovery_failures": self.chaos.fabric_recovery_failures,
            },
        }

    def events_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON of the experiment (CI determinism diffing)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def run_chaos_experiment(
    preset_name: str,
    seed: int = 0,
    telemetry=None,
    compiled=None,
) -> ChaosReport:
    """Run one named chaos scenario end to end.

    ``compiled`` lets callers pass a pre-built ``(registry, library)``
    pair (the HLS flow is the slow part); ``telemetry`` instruments the
    chaos run only.
    """
    preset = chaos_preset(preset_name)
    if compiled is None:
        compiled = compiled_suite(max_variants=1)

    # --- baseline: fault tolerance off, no faults ----------------------
    baseline_engine = build_engine(preset.node, compiled=compiled)
    baseline_graph = layered_graph(
        preset.layers, preset.width, len(baseline_engine.node), preset.graph_seed
    )
    baseline_report = baseline_engine.run_graph(baseline_graph)

    # --- chaos: self-healing runtime + seeded fault plan ---------------
    engine = build_engine(
        preset.node,
        compiled=compiled,
        fault_tolerance=preset.fault_tolerance(),
        telemetry=telemetry,
    )
    node = engine.node
    graph = layered_graph(preset.layers, preset.width, len(node), preset.graph_seed)
    controller = ChaosController(node.sim, seed=seed, telemetry=telemetry)
    controller.schedule_random(
        engine,
        node.network.links,
        config=preset.fault_config(baseline_report.makespan_ns),
    )
    controller.arm()
    chaos_report = engine.run_graph(graph)

    return ChaosReport(
        preset=preset_name,
        seed=seed,
        baseline=baseline_report,
        chaos=chaos_report,
        faults_planned=controller.faults_planned,
        faults_injected=controller.faults_injected,
        plan=[f.to_dict() for f in controller.plan],
        injected=list(controller.injected),
        workload_match=(
            graph_signature(baseline_graph) == graph_signature(graph)
        ),
    )


# ----------------------------------------------------------------------
# multi-tenant chaos: concurrent jobs, per-job verdicts
# ----------------------------------------------------------------------


@dataclass
class JobChaosVerdict:
    """Did one tenant survive the chaos run intact?"""

    job_id: int
    policy: str
    priority: int
    tasks: int
    tasks_retried: int
    tasks_unrecovered: int
    latency_ns: float
    workload_match: bool

    @property
    def integrity_ok(self) -> bool:
        """Same workload, every task of *this job* completed."""
        return self.workload_match and self.tasks_unrecovered == 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "policy": self.policy,
            "priority": self.priority,
            "tasks": self.tasks,
            "tasks_retried": self.tasks_retried,
            "tasks_unrecovered": self.tasks_unrecovered,
            "integrity_ok": self.integrity_ok,
        }


@dataclass
class MultiJobChaosReport:
    """Verdict of one multi-tenant chaos experiment: the machine-wide
    roll-up plus one integrity verdict per job."""

    preset: str
    seed: int
    baseline: MachineReport
    chaos: MachineReport
    verdicts: List[JobChaosVerdict]
    faults_planned: int
    faults_injected: int
    plan: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def integrity_ok(self) -> bool:
        return bool(self.verdicts) and all(v.integrity_ok for v in self.verdicts)

    @property
    def slowdown(self) -> float:
        if self.baseline.makespan_ns <= 0:
            return 1.0
        return self.chaos.makespan_ns / self.baseline.makespan_ns

    def to_dict(self) -> Dict[str, Any]:
        return {
            "preset": self.preset,
            "seed": self.seed,
            "integrity_ok": self.integrity_ok,
            "slowdown": self.slowdown,
            "faults_planned": self.faults_planned,
            "faults_injected": self.faults_injected,
            "plan": self.plan,
            "fairness_index": self.chaos.fairness_index(),
            "jobs": [v.to_dict() for v in self.verdicts],
            "baseline": {"makespan_ns": self.baseline.makespan_ns},
            "chaos": {
                "makespan_ns": self.chaos.makespan_ns,
                "worker_failures": self.chaos.worker_failures,
                "tasks_retried": self.chaos.tasks_retried,
                "tasks_unrecovered": self.chaos.tasks_unrecovered,
            },
        }

    def events_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON of the experiment (CI determinism diffing)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def run_multi_job_chaos_experiment(
    preset_name: str,
    seed: int = 0,
    policies: Tuple[str, ...] = ("greedy-hw", "energy"),
    telemetry=None,
    compiled=None,
) -> MultiJobChaosReport:
    """Run one chaos scenario with concurrent tenant jobs.

    Same two-run shape as :func:`run_chaos_experiment` -- a fault-free
    multi-job baseline (FT off) pins down the workload and the fault
    window, then the chaos run arms the self-healing runtime and injects
    the seeded plan while the jobs stream concurrently.  The verdicts
    are *per job*: each tenant's workload signature and task integrity
    is checked independently.  The job mix is the checkpoint workload's
    (:func:`~repro.chaos.checkpoint_experiment.workload_spec`), built and
    submitted by :func:`~repro.chaos.checkpoint_experiment.build_workload`:
    per-job graphs seeded off the preset's graph seed and a 2:1 priority
    for job 1, so fair-share weighting is exercised.
    """
    from repro.chaos.checkpoint_experiment import build_workload, workload_spec

    workload = workload_spec(preset_name, seed=seed, policies=policies)
    preset = chaos_preset(preset_name)
    if compiled is None:
        compiled = compiled_suite(max_variants=1)

    # --- baseline: concurrent jobs, fault tolerance off, no faults -----
    manager0, handles0 = build_workload(workload, compiled=compiled)
    baseline = manager0.run()

    # --- chaos: self-healing runtime + seeded fault plan ---------------
    manager, handles = build_workload(
        workload,
        compiled=compiled,
        fault_tolerance=preset.fault_tolerance(),
        telemetry=telemetry,
    )
    engine = manager.engine
    controller = ChaosController(engine.node.sim, seed=seed, telemetry=telemetry)
    controller.schedule_random(
        engine,
        engine.node.network.links,
        config=preset.fault_config(baseline.makespan_ns),
    )
    controller.arm()
    chaos = manager.run()

    verdicts = []
    for h0, h in zip(handles0, handles):
        outcome = chaos.job(h.job_id)
        verdicts.append(
            JobChaosVerdict(
                job_id=h.job_id,
                policy=h.policy.name,
                priority=h.priority,
                tasks=outcome.report.tasks,
                tasks_retried=outcome.report.tasks_retried,
                tasks_unrecovered=outcome.report.tasks_unrecovered,
                latency_ns=outcome.latency_ns,
                workload_match=(
                    graph_signature(h0.graph) == graph_signature(h.graph)
                ),
            )
        )
    return MultiJobChaosReport(
        preset=preset_name,
        seed=seed,
        baseline=baseline,
        chaos=chaos,
        verdicts=verdicts,
        faults_planned=controller.faults_planned,
        faults_injected=controller.faults_injected,
        plan=[f.to_dict() for f in controller.plan],
    )
