"""Run reports: per-job, per-node, and machine-wide roll-ups.

:class:`RunReport` describes one task-graph run (or one tenant job of a
multi-job run).  :class:`MachineReport` is the multi-tenant roll-up the
:class:`~repro.core.runtime.jobs.JobManager` returns: per-job
:class:`RunReport` s plus the machine-shared counters (reconfigurations,
status traffic, total energy) that no single tenant owns, and the
fairness view across tenants.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.telemetry.quantiles import fold_sum, latency_summary


@dataclass
class RunReport:
    """What one task-graph run (or one job of a multi-job run) did.

    The availability block (``worker_failures`` onward) stays at zero on
    every run without fault tolerance armed -- disabled parity.
    """

    makespan_ns: float
    tasks: int
    sw_calls: int
    hw_calls: int
    energy_pj: float
    energy_breakdown: Dict[str, float]
    reconfigurations: int
    status_messages: int
    placement_locality: float
    device_mix: Dict[str, int] = field(default_factory=dict)
    # availability / recovery metrics (populated when FT is armed)
    faults_injected: int = 0
    worker_failures: int = 0
    tasks_retried: int = 0
    tasks_unrecovered: int = 0
    mean_detection_ns: float = 0.0
    mean_recovery_ns: float = 0.0
    work_lost_ns: float = 0.0
    fabric_recoveries: int = 0
    fabric_recovery_failures: int = 0

    @property
    def hw_fraction(self) -> float:
        total = self.sw_calls + self.hw_calls
        return self.hw_calls / total if total else 0.0

    @property
    def availability_ok(self) -> bool:
        """Every task completed despite whatever faults were injected."""
        return self.tasks_unrecovered == 0


@dataclass
class JobOutcome:
    """One tenant job's identity plus its :class:`RunReport`."""

    job_id: int
    policy: str
    priority: int
    submitted_at: float
    started_at: Optional[float]
    finished_at: Optional[float]
    report: RunReport

    @property
    def latency_ns(self) -> float:
        """Submit-to-finish latency (the tenant-visible makespan)."""
        if self.finished_at is None:
            return 0.0
        return self.finished_at - self.submitted_at

    @property
    def throughput_tasks_per_ms(self) -> float:
        if self.latency_ns <= 0:
            return 0.0
        return self.report.tasks / (self.latency_ns / 1e6)

    def to_dict(self) -> Dict[str, Any]:
        r = self.report
        return {
            "job_id": self.job_id,
            "policy": self.policy,
            "priority": self.priority,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
            "latency_ns": self.latency_ns,
            "tasks": r.tasks,
            "sw_calls": r.sw_calls,
            "hw_calls": r.hw_calls,
            "energy_pj": r.energy_pj,
            "placement_locality": r.placement_locality,
            "tasks_retried": r.tasks_retried,
            "tasks_unrecovered": r.tasks_unrecovered,
        }


@dataclass
class MachineReport:
    """Aggregate of one multi-tenant run on a shared machine."""

    makespan_ns: float
    jobs: List[JobOutcome] = field(default_factory=list)
    # machine-shared counters no single tenant owns
    energy_pj: float = 0.0
    reconfigurations: int = 0
    status_messages: int = 0
    worker_failures: int = 0
    mean_detection_ns: float = 0.0
    mean_recovery_ns: float = 0.0

    @property
    def tasks(self) -> int:
        return sum(j.report.tasks for j in self.jobs)

    @property
    def sw_calls(self) -> int:
        return sum(j.report.sw_calls for j in self.jobs)

    @property
    def hw_calls(self) -> int:
        return sum(j.report.hw_calls for j in self.jobs)

    @property
    def tasks_retried(self) -> int:
        return sum(j.report.tasks_retried for j in self.jobs)

    @property
    def tasks_unrecovered(self) -> int:
        return sum(j.report.tasks_unrecovered for j in self.jobs)

    @property
    def availability_ok(self) -> bool:
        return all(j.report.availability_ok for j in self.jobs)

    @property
    def aggregate_throughput_tasks_per_ms(self) -> float:
        if self.makespan_ns <= 0:
            return 0.0
        return self.tasks / (self.makespan_ns / 1e6)

    def fairness_index(self) -> float:
        """Jain's fairness index over per-job priority-normalized
        throughput (1.0 = perfectly fair share of the machine)."""
        rates = [
            j.throughput_tasks_per_ms / max(1, j.priority) for j in self.jobs
        ]
        rates = [r for r in rates if r > 0]
        if not rates:
            return 1.0
        return (fold_sum(rates) ** 2) / (
            len(rates) * fold_sum([r * r for r in rates])
        )

    def job_latency_summary(self) -> Dict[str, float]:
        """p50/p95/p99 of per-job submit-to-finish latency (shared math)."""
        return latency_summary(
            [j.latency_ns for j in self.jobs if j.finished_at is not None]
        )

    def job(self, job_id: int) -> JobOutcome:
        for outcome in self.jobs:
            if outcome.job_id == job_id:
                return outcome
        raise KeyError(f"no job {job_id} in this report")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "makespan_ns": self.makespan_ns,
            "tasks": self.tasks,
            "sw_calls": self.sw_calls,
            "hw_calls": self.hw_calls,
            "energy_pj": self.energy_pj,
            "reconfigurations": self.reconfigurations,
            "status_messages": self.status_messages,
            "worker_failures": self.worker_failures,
            "tasks_retried": self.tasks_retried,
            "tasks_unrecovered": self.tasks_unrecovered,
            "fairness_index": self.fairness_index(),
            "job_latency": self.job_latency_summary(),
            "jobs": [j.to_dict() for j in self.jobs],
        }

    def json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON (CI determinism diffing)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)
