"""UNILOGIC: shared partitioned reconfigurable resources.

"Within a Compute Node, any Worker can access any Reconfigurable block
(even remote blocks that belong to other Workers) through the multi-layer
interconnect ... However, since this is not an ACE port (no snooping
protocol is supported) the remote Reconfigurable block should disable its
data cache (and would not be as efficient as a local one)." (Section 4.1)

:class:`UnilogicDomain` is the domain-wide view of every Worker's
regions.  An invocation names the *caller* Worker, the *function*, and
where the *data* lives; the domain finds a hosting region (preferring one
co-located with the data), models the control-path cost of reaching a
remote block (load/store register writes across the interconnect), and
models the data path with the ACE/ACE-lite asymmetry:

- accelerator co-located with the data: coherent local streaming, the
  accelerator's cache captures ``reuse`` of the traffic;
- accelerator remote from the data: cache disabled -- every byte crosses
  the interconnect every time it is touched, so effective traffic is
  ``bytes * (1 + reuse_turns)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from repro.core.compute_node import ComputeNode
from repro.fabric.region import Region, RegionState
from repro.interconnect.message import TransactionType
from repro.sim import Timeout


@dataclass
class AcceleratorAccess:
    """Report of one UNILOGIC invocation."""

    function: str
    caller_worker: int
    host_worker: int
    data_worker: int
    items: int
    latency_ns: float
    data_bytes: int
    remote_control: bool
    remote_data: bool
    job: int = 0        # owning tenant (0 = the implicit legacy job)


class AcceleratorLost(RuntimeError):
    """The hosting region died while an invocation was in flight.

    A fabric fault (or chaos-injected Worker crash) can blank a region
    between the moment a caller resolved it and the moment the call
    lands -- the control/data transfers across the interconnect take
    simulated time.  Callers should treat the invocation as failed and
    degrade (typically: re-run the function in software)."""


class UnilogicDomain:
    """The shared accelerator pool of one Compute Node."""

    #: register writes to start a call + completion interrupt
    CONTROL_BYTES = 64

    def __init__(self, node: ComputeNode) -> None:
        self.node = node
        self.invocations: List[AcceleratorAccess] = []
        self.remote_invocations = 0
        # (function, near_worker) -> nearest_region answer, valid while
        # the node's region watch stays at ``_nearest_generation``
        self._nearest: Dict[Tuple[str, int], Optional[Tuple[int, Region]]] = {}
        self._nearest_generation = node.region_watch.generation

    # ------------------------------------------------------------------
    # region discovery
    # ------------------------------------------------------------------
    def hosting_regions(self, function: str) -> List[Tuple[int, Region]]:
        """(worker_id, region) pairs across the whole domain, any Worker."""
        return list(self.node.hosted_regions().get(function, ()))

    def nearest_region(
        self, function: str, near_worker: int
    ) -> Optional[Tuple[int, Region]]:
        """The hosting region closest (hop-wise) to ``near_worker``.

        Ties go to the lowest Worker id, then the lowest region id.
        Answers are memoized until any region of the node changes its
        ``state`` or ``module`` (see :class:`~repro.fabric.region.RegionWatch`).
        """
        generation = self.node.region_watch.generation
        memo = self._nearest
        if generation != self._nearest_generation:
            memo.clear()
            self._nearest_generation = generation
        key = (function, near_worker)
        if key in memo:
            return memo[key]
        candidates = self.node.hosted_regions().get(function)
        found = None
        if candidates:
            hops = self.node.hop_distance
            found = min(
                candidates, key=lambda pair: (hops(near_worker, pair[0]), pair[0])
            )
        memo[key] = found
        return found

    # ------------------------------------------------------------------
    # invocation
    # ------------------------------------------------------------------
    def invoke(
        self,
        function: str,
        caller_worker: int,
        items: int,
        data_worker: Optional[int] = None,
        bytes_per_item: int = 8,
        reuse_turns: float = 0.0,
        job: int = 0,
    ) -> Generator:
        """Simulation process: one shared-accelerator call.

        ``reuse_turns`` is how many times the working set is re-touched
        beyond the first pass (temporal locality the local cache would
        capture).  Returns an :class:`AcceleratorAccess`.
        """
        if items <= 0:
            raise ValueError(f"items must be positive, got {items}")
        if reuse_turns < 0:
            raise ValueError("reuse_turns must be non-negative")
        data_worker = caller_worker if data_worker is None else data_worker

        found = self.nearest_region(function, data_worker)
        if found is None:
            raise LookupError(f"no region in the domain hosts {function!r}")
        host_worker, region = found
        host = self.node.workers[host_worker]
        start = self.node.sim.now

        # control path: register writes from the caller to the host block
        remote_control = host_worker != caller_worker
        if remote_control:
            self.remote_invocations += 1
            yield from self.node.transfer(
                caller_worker, host_worker, self.CONTROL_BYTES, TransactionType.STORE
            )

        data_bytes = items * bytes_per_item
        remote_data = host_worker != data_worker

        # data path + execution overlap is approximated as sequential
        # stream-in, pipelined execute, stream-out folded into the stream.
        if not remote_data:
            # ACE path: local coherent access; cache captures re-touches
            reuse_fraction = reuse_turns / (1.0 + reuse_turns)
            yield from host.local_stream(0, data_bytes, False, reuse=reuse_fraction)
        else:
            # ACE-lite path: cache disabled; every touch crosses the NoC
            total = int(data_bytes * (1.0 + reuse_turns))
            yield from self.node.transfer(
                data_worker, host_worker, total, TransactionType.LOAD
            )
            yield from self.node.workers[data_worker].local_stream(0, total, False)

        # the transfers above took simulated time: the region may have
        # died (fabric fault / Worker crash) while the call was in flight
        if region.state is not RegionState.READY or region.function != function:
            raise AcceleratorLost(
                f"region hosting {function!r} on worker {host_worker} died mid-call"
            )
        accel = host.accelerator_for_region(region)
        before = accel.energy_pj
        yield from accel.call(f"w{caller_worker}", items)
        if region.state is not RegionState.READY or region.function != function:
            # unloaded *during* the call: the result died with the fabric
            raise AcceleratorLost(
                f"region hosting {function!r} on worker {host_worker} died mid-call"
            )
        region.last_used_at = self.node.sim.now
        host.hw_calls += 1
        host.ledger.add(host.fabric_category, accel.energy_pj - before)

        # completion notification back to the caller
        if remote_control:
            yield from self.node.transfer(
                host_worker, caller_worker, 8, TransactionType.INTERRUPT
            )

        access = AcceleratorAccess(
            function=function,
            caller_worker=caller_worker,
            host_worker=host_worker,
            data_worker=data_worker,
            items=items,
            latency_ns=self.node.sim.now - start,
            data_bytes=data_bytes,
            remote_control=remote_control,
            remote_data=remote_data,
            job=job,
        )
        self.invocations.append(access)
        return access

    # ------------------------------------------------------------------
    def utilization_by_worker(self) -> dict:
        counts: dict = {w.worker_id: 0 for w in self.node.workers}
        for inv in self.invocations:
            counts[inv.host_worker] += 1
        return counts

    def utilization_by_job(self) -> dict:
        """Accelerator calls per tenant: how the shared fabric's regions
        were arbitrated across concurrent jobs."""
        counts: dict = {}
        for inv in self.invocations:
            counts[inv.job] = counts.get(inv.job, 0) + 1
        return counts
