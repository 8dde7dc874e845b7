"""The work-and-data distribution algorithm.

"Whenever a function is called, a work and data distribution algorithm in
the runtime system (included in the Execution Engine ...) will decide
whether the function will be executed in software or in hardware based on
the local status and the status of other Workers in the vicinity."

:class:`WorkDistributor` answers the *where* question: which Worker's
queue a task should join.  Since the policy extraction it is pure
mechanism -- the affinity-vs-load trade itself lives in the per-job
:class:`~repro.core.runtime.policy.SchedulingPolicy` (looked up through
the shared :class:`~repro.core.runtime.jobs.JobRegistry`); the
distributor supplies the decision context (node topology, queues, the
lazy tracker, and the UNILOGIC domain when the engine wired it) and
keeps the machine-wide plus per-tenant locality accounting.  The *how*
(SW vs. HW) is the per-worker scheduler's job.

The old ``DistributionPolicy`` weights dataclass grew into the shared
:class:`~repro.core.runtime.policy.PolicyConfig`; the name remains as an
alias, re-exported here for existing callers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, FrozenSet, List, Optional, Set

from repro.apps.taskgraph import Task
from repro.core.compute_node import ComputeNode
from repro.core.runtime.jobs import JobRegistry
from repro.core.runtime.lazy import LazyStatusTracker, LocalWorkQueue
from repro.core.runtime.policy import (
    DistributionPolicy,
    GreedyHardwarePolicy,
    PolicyConfig,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.unilogic import UnilogicDomain

__all__ = ["DistributionPolicy", "PolicyConfig", "WorkDistributor"]


class WorkDistributor:
    """Chooses the execution Worker for each task."""

    def __init__(
        self,
        node: ComputeNode,
        queues: List[LocalWorkQueue],
        tracker: LazyStatusTracker,
        policy: PolicyConfig = PolicyConfig(),
        jobs: Optional[JobRegistry] = None,
    ) -> None:
        if len(queues) != len(node):
            raise ValueError("one queue per worker required")
        self.node = node
        self.queues = queues
        self.tracker = tracker
        self.policy = policy
        # standalone distributors (tests) get a single-tenant registry
        # whose default policy carries this config
        self.jobs = (
            jobs if jobs is not None else JobRegistry(GreedyHardwarePolicy(policy))
        )
        self.unilogic: Optional["UnilogicDomain"] = None  # wired by the engine
        self.placements_local = 0   # task placed with its data
        self.placements_remote = 0
        self._down: Set[int] = set()   # failed Workers, out of the pool
        self._alive: List[int] = self._pool()

    # ------------------------------------------------------------------
    # graceful degradation: failed Workers leave the placement pool and
    # rejoin on recovery (armed by the runtime's failure detector)
    # ------------------------------------------------------------------
    def mark_down(self, worker: int) -> None:
        self._down.add(worker)
        self._alive = self._pool()

    def mark_up(self, worker: int) -> None:
        self._down.discard(worker)
        self._alive = self._pool()

    @property
    def down_workers(self) -> FrozenSet[int]:
        return frozenset(self._down)

    def alive_workers(self) -> List[int]:
        """Placement candidates, in id order: a shared list, rebuilt only
        when a Worker leaves or rejoins the pool (read it, do not modify
        it)."""
        return self._alive

    def _pool(self) -> List[int]:
        # a fully-dark pool falls back to everyone (placements then
        # strand until a Worker rejoins)
        alive = [w for w in range(len(self.queues)) if w not in self._down]
        return alive or list(range(len(self.queues)))

    def choose_worker(self, task: Task, observer: int = 0, job: int = 0) -> int:
        """The Worker the job's policy picks among the Workers currently
        in the placement pool."""
        record = self.jobs.record(job)
        best = record.policy.choose_worker(self, task, observer)
        local = best == task.data_worker
        if local:
            self.placements_local += 1
        else:
            self.placements_remote += 1
        record.note_placement(local)
        return best

    def dispatch(self, task: Task, observer: int = 0, job: int = 0) -> int:
        """Choose and enqueue; returns the chosen worker id."""
        worker = self.choose_worker(task, observer, job)
        self.queues[worker].push(task)
        return worker

    def locality_fraction(self) -> float:
        total = self.placements_local + self.placements_remote
        return self.placements_local / total if total else 1.0
