"""Checkpoint/restart: snapshot job progress, replay only lost work.

Per-task retry (:mod:`repro.core.runtime.faults`) survives individual
Worker deaths, but a coordinator-scale or rack-scale failure still loses
the whole run.  This module is the classic HPC answer (Ábrahám et al.,
"Preparing HPC Applications for Exascale"): periodically snapshot the
run's progress, and after a catastrophic failure rebuild the machine and
resume from the latest snapshot, re-executing only the work that came
after it.

Three pieces:

- :class:`CheckpointPolicy` -- how often to snapshot.  ``fixed`` mode
  uses ``interval_ns`` verbatim; ``daly`` mode computes the optimal
  interval from the configured MTBF and the *measured* checkpoint cost
  via Daly's higher-order formula (:func:`daly_interval_ns`), the
  standard tuning for exascale MTBFs.
- :class:`Snapshot` -- one recovery point: per-job completed-task sets,
  fabric region bindings, registered RNG states and the simulated
  clock, all serialized to a canonical versioned JSON format
  (:meth:`Snapshot.to_json` / :meth:`Snapshot.from_json` round-trip
  byte-identically).
- :class:`CheckpointManager` -- a simulation process attached to one
  :class:`~repro.core.runtime.jobs.JobManager` that captures snapshots
  on the policy's cadence (charging ``checkpoint_cost_ns`` of simulated
  quiesce time per snapshot) and persists them through a
  :class:`SnapshotStore` (``ckpt-<seq>.json`` files a later process
  restores from: ``python -m repro checkpoint save/restore/ls``).

Restore itself is workload-level: the snapshot records *what* ran (the
workload metadata plus per-job graph signatures), a harness rebuilds the
machine and graphs from that metadata, warps the fresh simulator's clock
to the snapshot time (:meth:`~repro.sim.engine.Simulator.warp_to`) and
resubmits every unfinished job with its ``completed`` index set -- see
:func:`repro.chaos.checkpoint_experiment.restore_from_snapshot`.

A manager that is never constructed costs nothing, and a run without one
is byte-identical to seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Generator, List, Optional

from repro.apps.taskgraph import graph_signature
from repro.fabric.region import RegionState
from repro.sim import Timeout, spawn

#: bump when the on-disk snapshot schema changes; restore refuses
#: snapshots from a different format generation
SNAPSHOT_FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# optimal-interval math (Young 1974, Daly 2006)
# ----------------------------------------------------------------------


def young_interval_ns(cost_ns: float, mtbf_ns: float) -> float:
    """Young's first-order optimum: ``sqrt(2 * cost * MTBF)``."""
    if cost_ns <= 0 or mtbf_ns <= 0:
        raise ValueError("cost and MTBF must be positive")
    return math.sqrt(2.0 * cost_ns * mtbf_ns)


def daly_interval_ns(cost_ns: float, mtbf_ns: float) -> float:
    """Daly's higher-order optimum checkpoint interval.

    For ``cost < 2 * MTBF``::

        sqrt(2 c M) * [1 + (1/3) sqrt(c / 2M) + (1/9)(c / 2M)] - c

    and simply ``MTBF`` otherwise (checkpointing that expensive cannot
    amortize; take the whole MTBF between snapshots).
    """
    if cost_ns <= 0 or mtbf_ns <= 0:
        raise ValueError("cost and MTBF must be positive")
    if cost_ns >= 2.0 * mtbf_ns:
        return mtbf_ns
    ratio = cost_ns / (2.0 * mtbf_ns)
    return (
        math.sqrt(2.0 * cost_ns * mtbf_ns)
        * (1.0 + math.sqrt(ratio) / 3.0 + ratio / 9.0)
        - cost_ns
    )


@dataclass(frozen=True)
class CheckpointPolicy:
    """How often (and how expensively) a run snapshots itself."""

    interval_ns: Optional[float] = None     # fixed cadence (mode="fixed")
    mode: str = "fixed"                     # "fixed" | "daly"
    mtbf_ns: Optional[float] = None         # required for mode="daly"
    checkpoint_cost_ns: float = 5_000.0     # simulated quiesce+write time
    max_snapshots: int = 0                  # retained in memory/store; 0 = all

    def __post_init__(self) -> None:
        if self.mode not in ("fixed", "daly"):
            raise ValueError(f"unknown checkpoint mode {self.mode!r}")
        if self.mode == "fixed":
            if self.interval_ns is None or self.interval_ns <= 0:
                raise ValueError("fixed mode needs a positive interval_ns")
        else:
            if self.mtbf_ns is None or self.mtbf_ns <= 0:
                raise ValueError("daly mode needs a positive mtbf_ns")
        if self.checkpoint_cost_ns < 0:
            raise ValueError("checkpoint cost must be non-negative")
        if self.max_snapshots < 0:
            raise ValueError("max_snapshots must be non-negative")

    def effective_interval_ns(self, measured_cost_ns: Optional[float] = None) -> float:
        """The cadence to use *now*: fixed, or Daly from MTBF and the
        measured per-snapshot cost (falling back to the configured
        cost before the first measurement exists)."""
        if self.mode == "fixed":
            return float(self.interval_ns)
        cost = (
            measured_cost_ns
            if measured_cost_ns is not None and measured_cost_ns > 0
            else max(self.checkpoint_cost_ns, 1.0)
        )
        return daly_interval_ns(cost, float(self.mtbf_ns))


# ----------------------------------------------------------------------
# the snapshot format
# ----------------------------------------------------------------------


@dataclass
class JobProgress:
    """One job's recovery state inside a snapshot."""

    job_id: int
    policy: str
    priority: int
    dataflow: bool
    total_tasks: int
    completed: List[int]                    # graph indices, ascending
    signature: List[List[Any]] = field(default_factory=list)

    @property
    def finished(self) -> bool:
        return len(self.completed) >= self.total_tasks

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "policy": self.policy,
            "priority": self.priority,
            "dataflow": self.dataflow,
            "total_tasks": self.total_tasks,
            "completed": list(self.completed),
            "signature": [list(row) for row in self.signature],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobProgress":
        return cls(
            job_id=int(data["job_id"]),
            policy=str(data["policy"]),
            priority=int(data["priority"]),
            dataflow=bool(data["dataflow"]),
            total_tasks=int(data["total_tasks"]),
            completed=sorted(int(i) for i in data["completed"]),
            signature=[list(row) for row in data.get("signature", [])],
        )


@dataclass
class Snapshot:
    """One recovery point, serializable to canonical versioned JSON."""

    seq: int
    taken_at_ns: float
    workload: Dict[str, Any] = field(default_factory=dict)
    jobs: List[JobProgress] = field(default_factory=list)
    fabric: List[Dict[str, Any]] = field(default_factory=list)
    rng: Dict[str, Any] = field(default_factory=dict)
    checkpoint_cost_ns: float = 0.0
    format_version: int = SNAPSHOT_FORMAT_VERSION

    def job(self, job_id: int) -> Optional[JobProgress]:
        for progress in self.jobs:
            if progress.job_id == job_id:
                return progress
        return None

    @property
    def tasks_completed(self) -> int:
        return sum(len(j.completed) for j in self.jobs)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format_version": self.format_version,
            "seq": self.seq,
            "taken_at_ns": self.taken_at_ns,
            "checkpoint_cost_ns": self.checkpoint_cost_ns,
            "workload": {k: self.workload[k] for k in sorted(self.workload)},
            "jobs": [j.to_dict() for j in self.jobs],
            "fabric": list(self.fabric),
            "rng": {k: self.rng[k] for k in sorted(self.rng)},
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON (sorted keys: round-trips byte-identically)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Snapshot":
        version = int(data.get("format_version", -1))
        if version != SNAPSHOT_FORMAT_VERSION:
            raise ValueError(
                f"snapshot format v{version} unsupported "
                f"(this build reads v{SNAPSHOT_FORMAT_VERSION})"
            )
        return cls(
            seq=int(data["seq"]),
            taken_at_ns=float(data["taken_at_ns"]),
            workload=dict(data.get("workload", {})),
            jobs=[JobProgress.from_dict(j) for j in data.get("jobs", [])],
            fabric=[dict(b) for b in data.get("fabric", [])],
            rng=dict(data.get("rng", {})),
            checkpoint_cost_ns=float(data.get("checkpoint_cost_ns", 0.0)),
            format_version=version,
        )

    @classmethod
    def from_json(cls, text: str) -> "Snapshot":
        return cls.from_dict(json.loads(text))


def restore_rngs(snapshot: Snapshot) -> Dict[str, random.Random]:
    """Rebuild every RNG registered at capture time, state and all."""
    out: Dict[str, random.Random] = {}
    for name, state in snapshot.rng.items():
        rng = random.Random()
        version, internal, gauss_next = state
        rng.setstate((int(version), tuple(int(v) for v in internal), gauss_next))
        out[name] = rng
    return out


# ----------------------------------------------------------------------
# on-disk persistence
# ----------------------------------------------------------------------


class SnapshotStore:
    """A directory of ``ckpt-<seq>.json`` files (the canonical format)."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, snapshot: Snapshot) -> Path:
        return self.root / f"ckpt-{snapshot.seq:05d}.json"

    def save(self, snapshot: Snapshot) -> Path:
        path = self.path_for(snapshot)
        path.write_text(snapshot.to_json(indent=2) + "\n")
        return path

    def list(self) -> List[Path]:
        return sorted(self.root.glob("ckpt-*.json"))

    def load(self, path) -> Snapshot:
        return Snapshot.from_json(Path(path).read_text())

    def load_latest(self) -> Optional[Snapshot]:
        paths = self.list()
        if not paths:
            return None
        return self.load(paths[-1])

    def prune(self, keep: int) -> None:
        """Drop the oldest files beyond ``keep`` (0 = keep everything)."""
        if keep <= 0:
            return
        for path in self.list()[:-keep]:
            path.unlink()


# ----------------------------------------------------------------------
# the manager
# ----------------------------------------------------------------------


class CheckpointManager:
    """Periodic snapshot process over one JobManager's jobs."""

    def __init__(
        self,
        manager,
        policy: CheckpointPolicy,
        store: Optional[SnapshotStore] = None,
        workload: Optional[Dict[str, Any]] = None,
        telemetry=None,
    ) -> None:
        self.manager = manager
        self.engine = manager.engine
        self.sim = manager.sim
        self.policy = policy
        self.store = store
        self.workload = dict(workload or {})
        self.telemetry = telemetry
        self.snapshots: List[Snapshot] = []
        self.measured_cost_ns: Optional[float] = None
        self._rngs: Dict[str, random.Random] = {}
        self._seq = 0
        self._running = True
        self._proc = None

    # ------------------------------------------------------------------
    def register_rng(self, name: str, rng: random.Random) -> None:
        """Snapshot this RNG's state with every checkpoint (restore via
        :func:`restore_rngs` keeps seeded streams exactly aligned)."""
        self._rngs[name] = rng

    def start(self) -> None:
        if self._proc is None:
            self._proc = spawn(self.sim, self.run(), name="checkpoint")

    def stop(self) -> None:
        self._running = False
        if self._proc is not None and self._proc.alive:
            self._proc.interrupt("checkpointing stopped")
        self._proc = None

    def run(self) -> Generator:
        """The cadence loop (a simulation process).  Stops by itself
        when every job has finished -- there is nothing left to lose."""
        while self._running:
            yield Timeout(self.policy.effective_interval_ns(self.measured_cost_ns))
            if not self._running:
                return
            if self.manager.handles and all(
                h.finished for h in self.manager.handles
            ):
                return
            yield from self.checkpoint()

    # ------------------------------------------------------------------
    def capture(self) -> Snapshot:
        """Build a snapshot of *right now* (no simulated cost charged)."""
        jobs = [
            JobProgress(
                job_id=handle.job_id,
                policy=handle.policy.name,
                priority=handle.priority,
                dataflow=handle.dataflow,
                total_tasks=len(handle.graph.tasks),
                completed=handle.completed_indices(),
                signature=graph_signature(handle.graph),
            )
            for handle in self.manager.handles
        ]
        fabric: List[Dict[str, Any]] = []
        for worker in self.engine.node.workers:
            for region in worker.fabric.regions:
                if region.state is RegionState.READY and region.module is not None:
                    fabric.append(
                        {
                            "worker": worker.worker_id,
                            "region": region.region_id,
                            "function": region.module.function,
                            "module": region.module.name,
                        }
                    )
        rng_states = {
            name: list(_jsonable_state(rng.getstate()))
            for name, rng in self._rngs.items()
        }
        snapshot = Snapshot(
            seq=self._seq,
            taken_at_ns=self.sim.now,
            workload=dict(self.workload),
            jobs=jobs,
            fabric=fabric,
            rng=rng_states,
            checkpoint_cost_ns=self.policy.checkpoint_cost_ns,
        )
        self._seq += 1
        return snapshot

    def checkpoint(self) -> Generator:
        """Capture + charge the quiesce cost + persist (sim process)."""
        started = self.sim.now
        snapshot = self.capture()
        if self.policy.checkpoint_cost_ns > 0:
            yield Timeout(self.policy.checkpoint_cost_ns)
        self.measured_cost_ns = self.sim.now - started
        self.snapshots.append(snapshot)
        keep = self.policy.max_snapshots
        if keep > 0 and len(self.snapshots) > keep:
            del self.snapshots[: len(self.snapshots) - keep]
        if self.store is not None:
            self.store.save(snapshot)
            self.store.prune(keep)
        if self.telemetry is not None:
            self.telemetry.event(
                "checkpoint.snapshot",
                f"{self.engine.node.name}.checkpoint",
                seq=snapshot.seq,
                tasks_completed=snapshot.tasks_completed,
                cost_ns=self.measured_cost_ns,
            )
        return snapshot

    def latest(self) -> Optional[Snapshot]:
        return self.snapshots[-1] if self.snapshots else None

    def latest_before(self, at_ns: float) -> Optional[Snapshot]:
        """The newest snapshot fully taken before ``at_ns`` (what a
        failure at that time could actually restore from)."""
        usable = [s for s in self.snapshots if s.taken_at_ns <= at_ns]
        return usable[-1] if usable else None


def _jsonable_state(state) -> List[Any]:
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]
