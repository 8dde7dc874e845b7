"""The scheduling-policy layer: pluggable device + placement decisions.

The paper's Fig. 5 separates the *mechanism* (queues, per-Worker
schedulers, the reconfiguration daemon) from the *policy* (which device
runs a call, which Worker's queue a task joins).  Historically both
decisions were baked into ``WorkerScheduler._decide_device`` and
``WorkDistributor``; this module extracts them behind one protocol so a
multi-tenant machine can run jobs side by side, each under its own
policy.

A :class:`SchedulingPolicy` answers two questions:

- :meth:`~SchedulingPolicy.decide_device` -- SW or HW for one task, on
  the Worker whose scheduler popped it (the scheduler object is the
  decision context: it carries the node, the UNILOGIC domain, the
  registry, the Execution History and the trained selector);
- :meth:`~SchedulingPolicy.choose_worker` -- which Worker's queue a task
  joins (the distributor object is the context: node, queues, lazy
  tracker, and -- when the engine wired it -- the UNILOGIC domain).

All numeric knobs live in one shared :class:`PolicyConfig`; the
constants that used to be duplicated between ``scheduler.py`` (inline
``hops * 10.0 + bytes / 4.0``) and ``distribution.py`` now have exactly
one home.  History-driven policies read the Execution History through
its query API rather than keeping private state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Type

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.apps.taskgraph import Task
    from repro.core.runtime.distribution import WorkDistributor
    from repro.core.runtime.scheduler import WorkerScheduler


@dataclass(frozen=True)
class PolicyConfig:
    """Every numeric knob a scheduling policy reads, in one place.

    Placement terms (lower score wins):

    - ``transfer_penalty_ns_per_byte_hop`` prices moving the task's data,
    - ``load_penalty_ns`` prices one queued task ahead of us,
    - ``data_affinity_only`` is the ablation that ignores load entirely.

    Device-decision terms (the remote ACE-lite penalty the scheduler
    used to hard-code):

    - ``remote_hop_penalty_ns`` per NoC hop of control distance,
    - ``remote_noc_bytes_per_ns`` rough NoC serialization bandwidth.

    Energy-aware weighting:

    - ``energy_ns_per_pj`` converts picojoules into equivalent
      nanoseconds when a policy trades latency against energy.
    """

    transfer_penalty_ns_per_byte_hop: float = 0.1
    load_penalty_ns: float = 20_000.0
    data_affinity_only: bool = False  # ablation: ignore load entirely
    remote_hop_penalty_ns: float = 10.0
    remote_noc_bytes_per_ns: float = 4.0
    energy_ns_per_pj: float = 1e-3

    def __post_init__(self) -> None:
        if self.remote_noc_bytes_per_ns <= 0:
            raise ValueError("remote_noc_bytes_per_ns must be positive")
        if self.energy_ns_per_pj < 0:
            raise ValueError("energy_ns_per_pj must be non-negative")


#: Backwards-compatible name: the old distribution-only policy dataclass
#: grew into the shared policy configuration.
DistributionPolicy = PolicyConfig


class SchedulingPolicy:
    """Base policy: greedy-hardware behaviour, overridable per decision.

    Subclasses override :meth:`decide_device` and/or
    :meth:`choose_worker`; the base implementations reproduce the
    historical monolithic behaviour bit-for-bit, so the default policy
    is also the compatibility policy.
    """

    #: Registry key and report label.
    name: str = "greedy-hw"

    def __init__(self, config: PolicyConfig = PolicyConfig()) -> None:
        self.config = config

    # ------------------------------------------------------------------
    # device decision (context: the per-Worker scheduler)
    # ------------------------------------------------------------------
    def decide_device(self, scheduler: "WorkerScheduler", task: "Task") -> str:
        """SW vs. HW for ``task`` on ``scheduler``'s Worker.

        1. no hosting region in the domain (or hardware disallowed):
           software;
        2. a trained device selector with confident models: follow it;
        3. otherwise compare analytic estimates: software cost model vs.
           best hosting region's latency plus the remote-invocation
           penalty priced by :class:`PolicyConfig`.
        """
        function = task.function
        found = (
            scheduler.unilogic.nearest_region(function, task.data_worker)
            if scheduler.allow_hardware
            else None
        )
        if found is None:
            return "sw"
        if scheduler.selector is not None:
            choice = scheduler.selector.choose_device(
                function, task.items, scheduler.energy_weight
            )
            if choice is not None:
                return choice
        # analytic fallback
        kernel = scheduler.registry.kernel(function)
        sw_ns = scheduler.worker.software_latency_ns(kernel, task.items)
        host_worker, region = found
        hw_ns = region.module.latency_ns(task.items)
        if host_worker != task.data_worker:
            # remote ACE-lite penalty: data crosses the NoC uncached
            bytes_total = task.input_bytes + task.output_bytes
            hops = scheduler.node.hop_distance(task.data_worker, host_worker)
            hw_ns += (
                hops * self.config.remote_hop_penalty_ns
                + bytes_total / self.config.remote_noc_bytes_per_ns
            )
        return "hw" if hw_ns < sw_ns else "sw"

    # ------------------------------------------------------------------
    # placement decision (context: the work distributor)
    # ------------------------------------------------------------------
    def choose_worker(
        self, distributor: "WorkDistributor", task: "Task", observer: int = 0
    ) -> int:
        """The alive Worker with the lowest placement score, ties to the
        lowest id.

        The score (lower wins) is the data-affinity transfer cost
        ``hops * bytes * transfer_penalty`` plus the believed load
        ``load * load_penalty``.  Placement runs once per task, so every
        alive Worker is scored in one pass over the node's hop row, with
        the beliefs about the whole pool from one tracker call (in pool
        order, which is what its status-message count and cache depend
        on).
        """
        config = self.config
        hop_row = distributor.node.hop_row(task.data_worker)
        data_bytes = task.input_bytes + task.output_bytes
        penalty = config.transfer_penalty_ns_per_byte_hop
        alive = distributor.alive_workers()
        loads = (
            None
            if config.data_affinity_only
            else distributor.tracker.estimated_loads(observer, alive)
        )
        load_penalty = config.load_penalty_ns
        best = -1
        best_score = 0.0
        for i, w in enumerate(alive):
            score = hop_row[w] * data_bytes * penalty
            if loads is not None:
                score = score + loads[i] * load_penalty
            if best < 0 or score < best_score:
                best = w
                best_score = score
        return best


class GreedyHardwarePolicy(SchedulingPolicy):
    """The default policy: hardware whenever it is predicted faster,
    placement by data affinity traded against believed load.  Identical
    to the pre-policy-layer monolithic behaviour."""

    name = "greedy-hw"


class EnergyAwarePolicy(SchedulingPolicy):
    """Minimize latency plus energy (weighted by
    ``config.energy_ns_per_pj``), preferring *measured* costs from the
    Execution History over analytic estimates -- the "history file"
    drives the decision, not ad-hoc per-policy state."""

    name = "energy"

    def decide_device(self, scheduler: "WorkerScheduler", task: "Task") -> str:
        function = task.function
        found = (
            scheduler.unilogic.nearest_region(function, task.data_worker)
            if scheduler.allow_hardware
            else None
        )
        if found is None:
            return "sw"
        host_worker, region = found
        weight = self.config.energy_ns_per_pj
        history = scheduler.history

        def measured_cost(device: str) -> Optional[float]:
            latency = history.mean_latency(function, device)
            energy = history.mean_energy(function, device)
            if latency is None or energy is None:
                return None
            return latency + weight * energy

        sw_cost = measured_cost("sw")
        hw_cost = measured_cost("hw")
        if sw_cost is None:
            kernel = scheduler.registry.kernel(function)
            sw_cost = scheduler.worker.software_latency_ns(
                kernel, task.items
            ) + weight * scheduler.worker.params.software.energy_pj(kernel, task.items)
        if hw_cost is None:
            hw_ns = region.module.latency_ns(task.items)
            if host_worker != task.data_worker:
                bytes_total = task.input_bytes + task.output_bytes
                hops = scheduler.node.hop_distance(task.data_worker, host_worker)
                hw_ns += (
                    hops * self.config.remote_hop_penalty_ns
                    + bytes_total / self.config.remote_noc_bytes_per_ns
                )
            hw_cost = hw_ns + weight * region.module.energy_pj(task.items)
        return "hw" if hw_cost < sw_cost else "sw"

    def choose_worker(
        self, distributor: "WorkDistributor", task: "Task", observer: int = 0
    ) -> int:
        """Prefer the Worker hosting the task's function nearest its
        data (hardware runs are the energy win); otherwise fall back to
        the affinity/load score."""
        unilogic = getattr(distributor, "unilogic", None)
        if unilogic is not None:
            found = unilogic.nearest_region(task.function, task.data_worker)
            if found is not None and found[0] in distributor.alive_workers():
                return found[0]
        return super().choose_worker(distributor, task, observer)


class LocalityPolicy(SchedulingPolicy):
    """NUMA-style locality first: run every task where its working set
    lives, and only use hardware when the hosting region is co-located
    with the data (no ACE-lite traffic crosses the NoC)."""

    name = "locality"

    def decide_device(self, scheduler: "WorkerScheduler", task: "Task") -> str:
        if not scheduler.allow_hardware:
            return "sw"
        found = scheduler.unilogic.nearest_region(task.function, task.data_worker)
        if found is None or found[0] != task.data_worker:
            return "sw"
        host_worker, region = found
        kernel = scheduler.registry.kernel(task.function)
        sw_ns = scheduler.worker.software_latency_ns(kernel, task.items)
        return "hw" if region.module.latency_ns(task.items) < sw_ns else "sw"

    def choose_worker(
        self, distributor: "WorkDistributor", task: "Task", observer: int = 0
    ) -> int:
        alive = distributor.alive_workers()
        if task.data_worker in alive:
            return task.data_worker
        # data home is down: nearest surviving Worker (ties to lowest id)
        return min(
            alive,
            key=lambda w: (
                distributor.node.hop_distance(task.data_worker, w),
                w,
            ),
        )


#: The built-in policies ``JobManager.submit_job(policy=...)`` accepts
#: by name.
POLICIES: Dict[str, Type[SchedulingPolicy]] = {
    GreedyHardwarePolicy.name: GreedyHardwarePolicy,
    EnergyAwarePolicy.name: EnergyAwarePolicy,
    LocalityPolicy.name: LocalityPolicy,
}


def make_policy(
    name: str, config: PolicyConfig = PolicyConfig()
) -> SchedulingPolicy:
    """Instantiate one built-in policy by registry name."""
    if name not in POLICIES:
        known = ", ".join(sorted(POLICIES))
        raise KeyError(f"unknown policy {name!r}; choose from: {known}")
    return POLICIES[name](config)
