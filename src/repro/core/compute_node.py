"""The ECOSCALE Compute Node (Fig. 3): a PGAS sub-system of Workers.

"One or more Compute Nodes create an entire and independent PGAS
sub-system including several Worker nodes and offer: (1) UNIMEM: a shared
partitioned global address space that allows Worker nodes to communicate
via regular loads and stores without global cache coherence and
(2) UNILOGIC: shared partitioned reconfigurable resources that share the
UNIMEM space with software tasks."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, Hashable, List, Optional

from repro.core.worker import Worker, WorkerParams
from repro.energy.accounting import EnergyLedger
from repro.fabric.region import RegionWatch
from repro.interconnect.link import LinkParams
from repro.interconnect.message import Message, TransactionType
from repro.interconnect.network import Network
from repro.interconnect.topology import build_tree, level_params
from repro.memory.address import AddressRange
from repro.memory.unimem import UnimemSpace
from repro.pgas.allocator import GlobalAllocator
from repro.pgas.numa import NumaDomain, NumaMap
from repro.sim import Simulator


@dataclass(frozen=True)
class ComputeNodeParams:
    """Shape of one Compute Node."""

    num_workers: int = 4
    worker: WorkerParams = WorkerParams()
    dram_window: int = 1 << 30        # each worker's slice of the PGAS space
    intra_fanout: Optional[int] = None  # workers per L0 switch (None = single level)

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("need at least one worker")
        if self.dram_window <= 0:
            raise ValueError("dram window must be positive")


class ComputeNode:
    """Workers + multi-layer interconnect + UNIMEM + NUMA allocator."""

    def __init__(
        self,
        sim: Simulator,
        params: ComputeNodeParams = ComputeNodeParams(),
        node_id: int = 0,
        ledger: Optional[EnergyLedger] = None,
        template=None,
    ) -> None:
        self.sim = sim
        self.params = params
        self.node_id = node_id
        self.name = f"node{node_id}"
        self.ledger = ledger if ledger is not None else EnergyLedger()

        # multi-layer intra-node interconnect: a tree of workers
        n = params.num_workers
        if params.intra_fanout and params.intra_fanout < n:
            fanout = params.intra_fanout
            groups = (n + fanout - 1) // fanout
            self.network, endpoints = build_tree(sim, [groups, fanout])
            endpoints = endpoints[:n]
        else:
            self.network, endpoints = build_tree(sim, [n])
        self.endpoints: List[Hashable] = endpoints

        # ``template`` (see repro.shard.bringup.NodeTemplate) shares the
        # structures that are pure functions of ``params`` -- tile grid,
        # region budget, NUMA distance matrix -- across identical nodes;
        # every mutable object stays per-node.
        grid = template.grid if template is not None else None
        budget = template.budget if template is not None else None
        self.workers: List[Worker] = [
            Worker(
                sim, i, params.worker, ledger=self.ledger,
                name=f"{self.name}.w{i}", grid=grid, budget=budget,
            )
            for i in range(n)
        ]

        # UNIMEM space + NUMA-aware allocator over it
        self.unimem = UnimemSpace(n, params.dram_window)
        domains = [
            NumaDomain(i, endpoints[i], self.unimem.map.window(i)) for i in range(n)
        ]
        if template is not None and template.numa_distances is not None:
            self.numa = NumaMap(domains, distances=template.numa_distances)
        else:
            self.numa = NumaMap(domains, self.network)
        self.allocator = GlobalAllocator(self.numa)

        # worker x worker hop counts: the topology is fixed after
        # bring-up, so the per-task placement queries index a table
        # instead of resolving a route per call
        self._hops: List[List[int]] = [
            [self.numa.distance(a, b) for b in range(n)] for a in range(n)
        ]
        # bumped by every region state/module write on this node; the
        # UNILOGIC hosting-region memo is keyed on it
        self.region_watch = RegionWatch()
        for w in self.workers:
            for region in w.fabric.regions:
                region.watch = self.region_watch

    def __len__(self) -> int:
        return len(self.workers)

    def attach_telemetry(self, hub) -> None:
        """Route this node's Workers and NoC into a telemetry hub."""
        from repro.telemetry.wiring import attach_node

        if hub is not None and hub.enabled:
            attach_node(hub, self)

    def worker(self, worker_id: int) -> Worker:
        return self.workers[worker_id]

    def endpoint(self, worker_id: int) -> Hashable:
        return self.endpoints[worker_id]

    # ------------------------------------------------------------------
    # UNIMEM transactions
    # ------------------------------------------------------------------
    def hop_distance(self, a: int, b: int) -> int:
        return self._hops[a][b]

    def transfer_cost(
        self,
        src_worker: int,
        dst_worker: int,
        size: int,
        kind: TransactionType = TransactionType.DMA,
    ) -> tuple:
        """Analytic (latency_ns, energy_pj) of moving ``size`` bytes."""
        if src_worker == dst_worker:
            return 0.0, 0.0
        msg = Message(self.endpoints[src_worker], self.endpoints[dst_worker], size, kind)
        lat, energy = self.network.send_cost(msg)
        self.ledger.add(f"{self.name}.noc", energy)
        return lat, energy

    def transfer(
        self,
        src_worker: int,
        dst_worker: int,
        size: int,
        kind: TransactionType = TransactionType.DMA,
    ) -> Generator:
        """Simulation process: move ``size`` bytes across the interconnect."""
        if src_worker == dst_worker:
            return None
        msg = Message(self.endpoints[src_worker], self.endpoints[dst_worker], size, kind)
        energy_before = self.network.total_energy_pj()
        delivered = yield from self.network.send(msg)
        self.ledger.add(f"{self.name}.noc", self.network.total_energy_pj() - energy_before)
        return delivered

    def remote_access(
        self, node: int, rng: AddressRange, is_write: bool
    ) -> Generator:
        """Simulation process: one UNIMEM load/store burst by Worker
        ``node`` against the global address range ``rng``.

        Local chunks stream from local DRAM (cacheable at home); remote
        chunks travel as load/store transactions (uncached unless the
        page home was moved here).  Returns total latency.
        """
        plan = self.unimem.plan_access(node, rng, is_write)
        start = self.sim.now
        accessor = self.workers[node]
        for backing_worker, sub, cacheable in plan.chunks:
            offset = self.unimem.map.local_offset(sub.base)
            if backing_worker == node and cacheable:
                # ACE path: coherent local access through the real cache.
                # Tag with the *global* address: local offsets would alias
                # other workers' windows in the same tag array.
                yield from accessor.cached_access(sub.base, sub.size, is_write)
            elif backing_worker == node:
                # local DRAM but home moved away: uncached direct access
                yield from accessor.local_stream(offset, sub.size, is_write)
            elif cacheable:
                # remote DRAM whose home was moved *here*: the accessor
                # may cache -- only misses cross the interconnect.
                hits, misses = accessor.cache.touch_range(sub.base, sub.size, is_write)
                if misses:
                    line = accessor.cache.geometry.line_bytes
                    kind = TransactionType.STORE if is_write else TransactionType.LOAD
                    yield from self.transfer(node, backing_worker, misses * line, kind)
                    yield from self.workers[backing_worker].local_stream(
                        offset, misses * line, is_write
                    )
            else:
                # plain remote access: uncached load/store over the NoC
                kind = TransactionType.STORE if is_write else TransactionType.LOAD
                yield from self.transfer(node, backing_worker, sub.size, kind)
                yield from self.workers[backing_worker].local_stream(
                    offset, sub.size, is_write
                )
        return self.sim.now - start

    # ------------------------------------------------------------------
    def fabric_summary(self) -> Dict[str, object]:
        return {
            "workers": len(self.workers),
            "regions": sum(len(w.fabric) for w in self.workers),
            "loaded": {
                w.name: w.fabric.loaded_functions() for w in self.workers
            },
            "reconfigurations": sum(w.reconfig.reconfigurations for w in self.workers),
        }
