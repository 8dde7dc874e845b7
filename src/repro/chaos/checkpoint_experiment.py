"""Checkpoint/restart chaos experiments: survive what retry cannot.

Per-task retry (:mod:`repro.core.runtime.faults`) handles single-Worker
deaths; a **rack-level correlated failure** that takes down every Worker
at once leaves nothing to retry on.  This module closes the loop around
:mod:`repro.core.runtime.checkpoint` with two experiments:

- :func:`run_checkpoint_restore_experiment` -- the acceptance scenario:
  run a multi-job workload with periodic checkpointing, kill one failure
  domain mid-run (the whole rack: a correlated, unrecoverable outage),
  abandon the crashed incarnation, then rebuild a fresh machine from the
  latest surviving snapshot (:func:`restore_from_snapshot`) and replay
  *only the lost work*.  The report's per-job verdicts check that every
  task of the original workload was accounted for -- completed before
  the snapshot (skipped on restore) or re-executed after it.

- :func:`run_checkpoint_interval_sweep` -- the tuning experiment: sweep
  MTBF x checkpoint-interval and report goodput / availability / wasted
  work per cell.  One real DES run measures the checkpoint cost; a
  seeded renewal model (common random numbers across intervals, so the
  argmax is stable) then shows goodput peaking at Daly's optimum
  interval -- the validation that the ``mode="daly"`` policy picks the
  right cadence.

Both experiments are pure functions of their seed and knobs, like every
other chaos experiment in this package.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.apps.taskgraph import graph_signature
from repro.chaos.controller import ChaosController
from repro.chaos.domains import DomainTree, build_domain_tree
from repro.chaos.experiment import chaos_preset
from repro.core.runtime import FaultTolerancePolicy, JobManager
from repro.core.runtime.checkpoint import (
    CheckpointManager,
    CheckpointPolicy,
    JobProgress,
    Snapshot,
    SnapshotStore,
    daly_interval_ns,
)
from repro.experiments import GRAPH_FUNCTIONS, build_engine, submit_job_mix
from repro.presets import JobMix, JobSpec, compiled_suite


# ----------------------------------------------------------------------
# workload metadata: everything restore needs to rebuild the run
# ----------------------------------------------------------------------


def workload_spec(
    preset_name: str,
    seed: int = 0,
    policies: Tuple[str, ...] = ("greedy-hw", "energy"),
    max_variants: int = 1,
) -> Dict[str, Any]:
    """The snapshot's ``workload`` block: a chaos preset's job mix in
    self-contained form (restore rebuilds the machine from this alone;
    the task functions are recorded so restore rebuilds identical
    graphs)."""
    preset = chaos_preset(preset_name)
    return {
        "kind": "chaos-jobs",
        "preset": preset_name,
        "node": preset.node,
        "layers": preset.layers,
        "width": preset.width,
        "graph_seed": preset.graph_seed,
        "functions": list(GRAPH_FUNCTIONS),
        "policies": list(policies),
        "priorities": [2 if i == 0 else 1 for i in range(len(policies))],
        "max_variants": int(max_variants),
        "seed": int(seed),
    }


def workload_mix(
    workload: Dict[str, Any], progress: Optional[List[JobProgress]] = None
) -> JobMix:
    """The :class:`~repro.presets.JobMix` a ``workload`` block describes.

    Job ``i`` runs a ``layers x width`` graph seeded ``graph_seed + i``
    under the block's ``i``-th policy and priority.  On restore,
    ``progress`` (a snapshot's jobs in job-id order) supplies each job's
    policy, priority and dataflow instead.
    """
    if progress is None:
        rows = [
            (policy, priority, False)
            for policy, priority in zip(
                workload["policies"], workload["priorities"]
            )
        ]
    else:
        rows = [(p.policy, p.priority, p.dataflow) for p in progress]
    return JobMix(
        node=workload["node"],
        jobs=tuple(
            JobSpec(
                policy,
                priority=priority,
                layers=workload["layers"],
                width=workload["width"],
                graph_seed=workload["graph_seed"] + i,
                dataflow=dataflow,
            )
            for i, (policy, priority, dataflow) in enumerate(rows)
        ),
    )


def build_workload(
    workload: Dict[str, Any],
    mix: Optional[JobMix] = None,
    *,
    compiled=None,
    fault_tolerance: Optional[FaultTolerancePolicy] = None,
    telemetry=None,
    start_ns: float = 0.0,
    completed=(),
) -> Tuple[JobManager, list]:
    """Build the machine a ``workload`` block runs on and submit its jobs.

    Returns ``(manager, handles)``; ``manager.run()`` runs the mix.  The
    mix defaults to :func:`workload_mix` of the block.  A restored
    incarnation passes its snapshot's ``start_ns`` clock, its mix and
    each job's ``completed`` graph indices.
    """
    manager = JobManager(
        build_engine(
            workload["node"],
            fault_tolerance=fault_tolerance,
            telemetry=telemetry,
            compiled=compiled,
            max_variants=workload["max_variants"],
            start_ns=start_ns,
        )
    )
    handles = submit_job_mix(
        manager,
        mix if mix is not None else workload_mix(workload),
        completed=completed,
        functions=workload["functions"],
    )
    return manager, handles


# ----------------------------------------------------------------------
# restore: snapshot -> fresh machine -> replay only lost work
# ----------------------------------------------------------------------


def restore_from_snapshot(
    snapshot: Snapshot,
    fault_tolerance: Optional[FaultTolerancePolicy] = None,
    telemetry=None,
    compiled=None,
):
    """Rebuild the run a snapshot describes and resume it.

    Returns ``(manager, handles)`` with every job resubmitted: the
    simulator's clock is warped to the snapshot time, each graph is
    rebuilt from the workload metadata and *verified against the
    snapshot's per-job signature* (restoring onto the wrong workload is
    an error, not silent corruption), and each job carries its
    ``completed`` index set so the drivers dispatch only the lost
    frontier.  ``manager.run()`` then finishes the workload.
    """
    workload = snapshot.workload
    if workload.get("kind") != "chaos-jobs":
        raise ValueError(
            f"cannot restore workload kind {workload.get('kind')!r}"
        )
    progress = sorted(snapshot.jobs, key=lambda j: j.job_id)
    # the new incarnation's clock resumes at the snapshot time instead
    # of replaying history from zero
    manager, handles = build_workload(
        workload,
        workload_mix(workload, progress),
        compiled=compiled,
        fault_tolerance=fault_tolerance,
        telemetry=telemetry,
        start_ns=snapshot.taken_at_ns,
        completed=[p.completed for p in progress],
    )
    for job, handle in zip(progress, handles):
        if job.signature and graph_signature(handle.graph) != job.signature:
            raise ValueError(
                f"job {job.job_id}: rebuilt graph does not match the "
                "snapshot's workload signature (wrong preset or seed?)"
            )
    return manager, handles


# ----------------------------------------------------------------------
# the acceptance experiment: rack kill -> abandon -> restore -> verdict
# ----------------------------------------------------------------------


@dataclass
class JobRestoreVerdict:
    """Did one job's work survive the outage end to end?"""

    job_id: int
    policy: str
    total_tasks: int
    checkpointed: int            # completed before the snapshot (skipped)
    replayed: int                # re-executed by the restored incarnation
    tasks_unrecovered: int
    workload_match: bool

    @property
    def integrity_ok(self) -> bool:
        return (
            self.workload_match
            and self.tasks_unrecovered == 0
            and self.checkpointed + self.replayed == self.total_tasks
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "policy": self.policy,
            "total_tasks": self.total_tasks,
            "checkpointed": self.checkpointed,
            "replayed": self.replayed,
            "tasks_unrecovered": self.tasks_unrecovered,
            "integrity_ok": self.integrity_ok,
        }


@dataclass
class CheckpointRestoreReport:
    """Verdict of one kill-and-restore experiment."""

    preset: str
    seed: int
    domain: str
    interval_ns: float
    baseline_makespan_ns: float
    baseline_tasks: int
    kill_ns: float
    abandoned_ns: float
    domain_workers: List[int] = field(default_factory=list)
    snapshots_taken: int = 0
    snapshot_seq: Optional[int] = None
    snapshot_at_ns: Optional[float] = None
    tasks_checkpointed: int = 0
    restored_makespan_ns: float = 0.0
    verdicts: List[JobRestoreVerdict] = field(default_factory=list)

    @property
    def integrity_ok(self) -> bool:
        return bool(self.verdicts) and all(
            v.integrity_ok for v in self.verdicts
        )

    @property
    def lost_window_ns(self) -> float:
        """Simulated progress time the outage destroyed (snapshot to
        abandonment) -- the work the restore had to redo."""
        if self.snapshot_at_ns is None:
            return self.abandoned_ns
        return self.abandoned_ns - self.snapshot_at_ns

    def to_dict(self) -> Dict[str, Any]:
        return {
            "preset": self.preset,
            "seed": self.seed,
            "domain": self.domain,
            "domain_workers": list(self.domain_workers),
            "interval_ns": self.interval_ns,
            "integrity_ok": self.integrity_ok,
            "baseline": {
                "makespan_ns": self.baseline_makespan_ns,
                "tasks": self.baseline_tasks,
            },
            "crash": {
                "kill_ns": self.kill_ns,
                "abandoned_ns": self.abandoned_ns,
                "snapshots_taken": self.snapshots_taken,
                "snapshot_seq": self.snapshot_seq,
                "snapshot_at_ns": self.snapshot_at_ns,
                "tasks_checkpointed": self.tasks_checkpointed,
                "lost_window_ns": self.lost_window_ns,
            },
            "restore": {
                "makespan_ns": self.restored_makespan_ns,
                "tasks_checkpointed": sum(v.checkpointed for v in self.verdicts),
                "tasks_replayed": sum(v.replayed for v in self.verdicts),
            },
            "jobs": [v.to_dict() for v in self.verdicts],
        }

    def events_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON of the experiment (CI determinism diffing)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def run_checkpoint_restore_experiment(
    preset_name: str = "mini",
    seed: int = 0,
    domain: str = "rack0",
    interval_ns: Optional[float] = None,
    kill_fraction: float = 0.45,
    abandon_fraction: float = 0.6,
    store_dir=None,
    telemetry=None,
    compiled=None,
) -> CheckpointRestoreReport:
    """Kill one failure domain mid-run, restore from the last snapshot.

    Three phases on identical machines:

    1. **baseline** -- the workload uninterrupted (pins down makespan,
       per-job task counts and workload signatures),
    2. **crash** -- the same workload with periodic checkpointing
       (default cadence: an eighth of the baseline makespan), a
       permanent correlated kill of ``domain`` at ``kill_fraction`` of
       the makespan, and abandonment of the crashed incarnation at
       ``abandon_fraction`` (rack-scale loss: nothing left to retry on),
    3. **restore** -- :func:`restore_from_snapshot` from the newest
       snapshot taken before the kill, run to completion.

    ``store_dir`` additionally persists every snapshot through a
    :class:`SnapshotStore` (the CLI's ``checkpoint save`` path).
    """
    if not 0.0 < kill_fraction < abandon_fraction:
        raise ValueError("need 0 < kill_fraction < abandon_fraction")
    workload = workload_spec(preset_name, seed=seed)
    preset = chaos_preset(preset_name)
    if compiled is None:
        compiled = compiled_suite(max_variants=workload["max_variants"])

    # --- phase 1: uninterrupted baseline -------------------------------
    manager0, handles0 = build_workload(workload, compiled=compiled)
    baseline = manager0.run()

    # --- phase 2: checkpointed run, domain kill, abandonment -----------
    ft = preset.fault_tolerance()
    if interval_ns is None:
        interval_ns = baseline.makespan_ns / 8.0
    manager, _ = build_workload(
        workload, compiled=compiled, fault_tolerance=ft, telemetry=telemetry
    )
    engine = manager.engine
    node, sim = engine.node, engine.node.sim
    ckpt = CheckpointManager(
        manager,
        CheckpointPolicy(interval_ns=interval_ns),
        store=SnapshotStore(store_dir) if store_dir is not None else None,
        workload=workload,
        telemetry=telemetry,
    )
    ckpt.start()
    tree = build_domain_tree(len(node.workers))
    target = tree.domain(domain)
    kill_ns = kill_fraction * baseline.makespan_ns
    abandon_ns = abandon_fraction * baseline.makespan_ns
    controller = ChaosController(sim, seed=seed, telemetry=telemetry)
    controller.fail_domain(engine, target, kill_ns, downtime_ns=None)
    controller.arm()
    sim.run(until=abandon_ns)
    ckpt.stop()
    snapshot = ckpt.latest_before(kill_ns)
    # the crashed incarnation ends here: close it like a paused run, so
    # its in-flight work is freed by reference counting
    manager.abandon()
    sim.close()
    if snapshot is None:
        raise RuntimeError(
            f"no snapshot survived before the kill at {kill_ns:.0f} ns "
            f"(interval {interval_ns:.0f} ns too long for this workload)"
        )

    # --- phase 3: restore from the snapshot, replay lost work ----------
    manager2, handles2 = restore_from_snapshot(
        snapshot, fault_tolerance=ft, telemetry=telemetry, compiled=compiled
    )
    restored = manager2.run()

    verdicts = []
    for h0, handle in zip(handles0, handles2):
        outcome = restored.job(handle.job_id)
        progress = snapshot.job(handle.job_id)
        verdicts.append(
            JobRestoreVerdict(
                job_id=handle.job_id,
                policy=handle.policy.name,
                total_tasks=len(h0.graph.tasks),
                # checkpointed comes from the *snapshot*, replayed from
                # the restored driver's skip counter: their sum matching
                # the total proves the driver skipped exactly the
                # snapshot's completed set, no more, no fewer
                checkpointed=len(progress.completed) if progress else 0,
                replayed=outcome.report.tasks - handle.tasks_skipped,
                tasks_unrecovered=outcome.report.tasks_unrecovered,
                workload_match=(
                    graph_signature(h0.graph) == graph_signature(handle.graph)
                ),
            )
        )
    return CheckpointRestoreReport(
        preset=preset_name,
        seed=seed,
        domain=domain,
        domain_workers=list(target.workers),
        interval_ns=interval_ns,
        baseline_makespan_ns=baseline.makespan_ns,
        baseline_tasks=baseline.tasks,
        kill_ns=kill_ns,
        abandoned_ns=abandon_ns,
        snapshots_taken=len(ckpt.snapshots),
        snapshot_seq=snapshot.seq,
        snapshot_at_ns=snapshot.taken_at_ns,
        tasks_checkpointed=snapshot.tasks_completed,
        restored_makespan_ns=restored.makespan_ns,
        verdicts=verdicts,
    )


# ----------------------------------------------------------------------
# the tuning experiment: MTBF x interval -> goodput, Daly validation
# ----------------------------------------------------------------------

#: geometric factor grid around the Daly optimum (1.0 = exactly Daly);
#: "within one sweep step" in the validation means one index on this grid
SWEEP_FACTORS = (0.25, 0.5, 0.71, 1.0, 1.41, 2.0, 4.0)


def _renewal_trial(
    work_ns: float,
    interval_ns: float,
    cost_ns: float,
    restart_ns: float,
    mtbf_ns: float,
    rng: random.Random,
) -> Dict[str, float]:
    """One seeded renewal-process trial: total wall time to finish
    ``work_ns`` of useful work, checkpointing every ``interval_ns``.

    Failures arrive exponentially (rate ``1/mtbf_ns``) and destroy the
    progress since the last checkpoint; every failure also costs
    ``restart_ns`` of rebuild time.  The final partial segment skips its
    checkpoint (nothing follows it worth protecting).
    """
    done = 0.0
    total = 0.0
    rework = 0.0
    overhead = 0.0
    restart_time = 0.0
    failures = 0
    time_to_fail = rng.expovariate(1.0 / mtbf_ns)
    while done < work_ns:
        seg = min(interval_ns, work_ns - done)
        ckpt = cost_ns if done + seg < work_ns else 0.0
        attempt = seg + ckpt
        if time_to_fail >= attempt:
            total += attempt
            overhead += ckpt
            time_to_fail -= attempt
            done += seg
        else:
            # mid-segment failure: the whole segment's progress is lost
            failures += 1
            rework += min(time_to_fail, seg)
            total += time_to_fail + restart_ns
            restart_time += restart_ns
            time_to_fail = rng.expovariate(1.0 / mtbf_ns)
    return {
        "total_ns": total,
        "rework_ns": rework,
        "overhead_ns": overhead,
        "restart_ns": restart_time,
        "failures": float(failures),
    }


@dataclass
class CheckpointSweepReport:
    """The MTBF x interval grid and its Daly verdict."""

    seed: int
    trials: int
    work_factor: float
    checkpoint_cost_ns: float
    restart_cost_ns: float
    measured_cost_ns: Optional[float]
    cells: List[Dict[str, Any]] = field(default_factory=list)
    optima: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def daly_validated(self) -> bool:
        """For every MTBF: measured-best interval within one sweep step
        of Daly's prediction (factor 1.0 on the grid)."""
        return bool(self.optima) and all(o["within_one_step"] for o in self.optima)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "work_factor": self.work_factor,
            "checkpoint_cost_ns": self.checkpoint_cost_ns,
            "restart_cost_ns": self.restart_cost_ns,
            "measured_cost_ns": self.measured_cost_ns,
            "daly_validated": self.daly_validated,
            "factors": list(SWEEP_FACTORS),
            "cells": list(self.cells),
            "optima": list(self.optima),
        }

    def events_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON of the sweep (CI determinism diffing)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def run_checkpoint_interval_sweep(
    seed: int = 0,
    mtbf_list: Tuple[float, ...] = (2e6, 8e6, 32e6),
    trials: int = 48,
    work_factor: float = 25.0,
    checkpoint_cost_ns: Optional[float] = None,
    restart_cost_ns: float = 50_000.0,
    measure: bool = True,
    compiled=None,
) -> CheckpointSweepReport:
    """Sweep MTBF x checkpoint interval, validate the Daly optimum.

    When ``measure`` is on, one real DES run of the ``mini`` workload
    with checkpointing armed supplies the measured per-snapshot cost
    (the same number ``mode="daly"`` policies feed their formula);
    ``checkpoint_cost_ns`` overrides it.  Each grid cell then runs
    ``trials`` seeded renewal-process trials over ``work_factor x MTBF``
    of useful work.  Common random numbers: every interval of one
    (MTBF, trial) pair replays the *same* failure-time stream, so the
    per-MTBF argmax reflects the interval, not sampling noise.
    """
    measured: Optional[float] = None
    if measure and checkpoint_cost_ns is None:
        workload = workload_spec("mini", seed=seed)
        if compiled is None:
            compiled = compiled_suite(max_variants=workload["max_variants"])
        manager, _ = build_workload(workload, compiled=compiled)
        ckpt = CheckpointManager(
            manager, CheckpointPolicy(interval_ns=100_000.0), workload=workload
        )
        ckpt.start()
        manager.run()
        ckpt.stop()
        measured = ckpt.measured_cost_ns
    cost = (
        checkpoint_cost_ns
        if checkpoint_cost_ns is not None
        else (measured if measured else 5_000.0)
    )

    cells: List[Dict[str, Any]] = []
    optima: List[Dict[str, Any]] = []
    for mtbf in mtbf_list:
        daly = daly_interval_ns(cost, mtbf)
        work = work_factor * mtbf
        goodputs: List[float] = []
        for fi, factor in enumerate(SWEEP_FACTORS):
            interval = factor * daly
            acc = {k: 0.0 for k in
                   ("total_ns", "rework_ns", "overhead_ns", "restart_ns",
                    "failures")}
            for t in range(trials):
                rng = random.Random(f"sweep:{seed}:{mtbf}:{t}")
                trial = _renewal_trial(
                    work, interval, cost, restart_cost_ns, mtbf, rng
                )
                for k, v in trial.items():
                    acc[k] += v
            mean = {k: v / trials for k, v in acc.items()}
            goodput = work / mean["total_ns"]
            goodputs.append(goodput)
            cells.append(
                {
                    "mtbf_ns": mtbf,
                    "factor": factor,
                    "interval_ns": interval,
                    "goodput": round(goodput, 6),
                    "availability": round(
                        1.0 - mean["restart_ns"] / mean["total_ns"], 6
                    ),
                    "wasted_work_ns": round(
                        mean["rework_ns"] + mean["overhead_ns"], 3
                    ),
                    "mean_failures": round(mean["failures"], 3),
                }
            )
        best = max(range(len(SWEEP_FACTORS)), key=lambda i: goodputs[i])
        daly_idx = SWEEP_FACTORS.index(1.0)
        optima.append(
            {
                "mtbf_ns": mtbf,
                "daly_interval_ns": daly,
                "best_factor": SWEEP_FACTORS[best],
                "best_goodput": round(goodputs[best], 6),
                "daly_goodput": round(goodputs[daly_idx], 6),
                "within_one_step": abs(best - daly_idx) <= 1,
            }
        )
    return CheckpointSweepReport(
        seed=seed,
        trials=trials,
        work_factor=work_factor,
        checkpoint_cost_ns=cost,
        restart_cost_ns=restart_cost_ns,
        measured_cost_ns=measured,
        cells=cells,
        optima=optima,
    )
