"""The ECOSCALE Compute Node (Fig. 3): a PGAS sub-system of Workers.

"One or more Compute Nodes create an entire and independent PGAS
sub-system including several Worker nodes and offer: (1) UNIMEM: a shared
partitioned global address space that allows Worker nodes to communicate
via regular loads and stores without global cache coherence and
(2) UNILOGIC: shared partitioned reconfigurable resources that share the
UNIMEM space with software tasks."
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Generator, Hashable, List, Optional, Tuple

from repro.core.worker import Worker, WorkerParams
from repro.energy.accounting import EnergyLedger
from repro.fabric.floorplan import Floorplanner, Placement, TileGrid
from repro.fabric.region import Region, RegionState, RegionWatch
from repro.interconnect.link import LinkParams
from repro.interconnect.message import Message, TransactionType
from repro.interconnect.network import Network
from repro.interconnect.topology import build_tree, level_params
from repro.memory.address import AddressRange, GlobalAddressMap
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
        if self.intra_fanout is not None and self.intra_fanout < 1:
            raise ValueError(
                f"intra_fanout must be a positive int or None, got {self.intra_fanout}"
            )


def _intra_fanouts(params: ComputeNodeParams) -> List[int]:
    """The ``build_tree`` fanouts of the intra-node interconnect."""
    n = params.num_workers
    fanout = params.intra_fanout
    if fanout is not None and fanout < n:
        return [(n + fanout - 1) // fanout, fanout]
    return [n]


@dataclass(frozen=True)
class _NodeShape:
    """The parts of a Compute Node that are pure functions of its params.

    Read-only and shared by every node of one shape: the fabric tile grid
    (with its prefix sums), the frozen region budget, the NUMA map and
    the worker x worker hop table.
    """

    grid: TileGrid
    budget: Tuple[Placement, ...]
    numa: NumaMap
    hops: List[List[int]]


@functools.lru_cache(maxsize=32)
def _node_shape(params: ComputeNodeParams) -> _NodeShape:
    """Derive a node shape once per distinct ``params`` per process.

    Hop counts come from a topology built on a scratch simulator: they
    depend on the tree's shape only, never on its links' state.
    """
    n = params.num_workers
    wp = params.worker
    grid = TileGrid.standard(wp.fabric_columns, wp.fabric_rows)
    budget = tuple(Floorplanner(grid).budget_regions(wp.fabric_regions))
    network, endpoints = build_tree(Simulator(), _intra_fanouts(params))
    windows = GlobalAddressMap(n, params.dram_window)
    numa = NumaMap(
        [NumaDomain(i, endpoints[i], windows.window(i)) for i in range(n)], network
    )
    hops = [[numa.distance(a, b) for b in range(n)] for a in range(n)]
    return _NodeShape(grid, budget, numa, hops)


class ComputeNode:
    """Workers + multi-layer interconnect + UNIMEM + NUMA allocator."""

    def __init__(
        self,
        sim: Simulator,
        params: ComputeNodeParams = ComputeNodeParams(),
        node_id: int = 0,
        ledger: Optional[EnergyLedger] = None,
    ) -> None:
        self.sim = sim
        self.params = params
        self.node_id = node_id
        self.name = f"node{node_id}"
        # this node's interconnect ledger category, formatted once
        self.noc_category = f"{self.name}.noc"
        self.ledger = ledger if ledger is not None else EnergyLedger()

        # multi-layer intra-node interconnect: a tree of workers
        n = params.num_workers
        self.network, endpoints = build_tree(sim, _intra_fanouts(params))
        self.endpoints: List[Hashable] = endpoints[:n]

        # grid, region budget, NUMA map and hop table are shared by every
        # node of this shape; Workers, links, caches and queues are per-node
        shape = _node_shape(params)
        self.workers: List[Worker] = [
            Worker(
                sim, i, params.worker, ledger=self.ledger,
                name=f"{self.name}.w{i}", grid=shape.grid, budget=shape.budget,
            )
            for i in range(n)
        ]

        # UNIMEM space + NUMA-aware allocator over it
        self.unimem = UnimemSpace(n, params.dram_window)
        self.numa = shape.numa
        self.allocator = GlobalAllocator(self.numa)

        # worker x worker hop counts: the topology is fixed after
        # bring-up, so the per-task placement queries index a table
        # instead of resolving a route per call
        self._hops: List[List[int]] = shape.hops
        # bumped by every region state/module write on this node; the
        # hosted-region view and the UNILOGIC nearest-region memo are
        # keyed on it
        self.region_watch = RegionWatch()
        for w in self.workers:
            for region in w.fabric.regions:
                region.watch = self.region_watch
        self._hosted: Dict[str, List[Tuple[int, Region]]] = {}
        self._hosted_generation = -1

    def __len__(self) -> int:
        return len(self.workers)

    def attach_telemetry(self, hub) -> None:
        """Route this node's Workers and NoC into a telemetry hub."""
        from repro.telemetry.wiring import attach_node

        if hub is not None:
            attach_node(hub, self)

    def worker(self, worker_id: int) -> Worker:
        return self.workers[worker_id]

    def hosted_regions(self) -> Dict[str, List[Tuple[int, Region]]]:
        """function -> [(worker_id, region)] over every READY region,
        Workers and then regions in id order.

        Rebuilt only when a region's ``state`` or ``module`` changed
        since the last call (see :class:`~repro.fabric.region.RegionWatch`),
        so a period with no load, eviction or fault rescans no region.
        The answer is shared: read it, do not modify it.
        """
        generation = self.region_watch.generation
        if generation != self._hosted_generation:
            hosted: Dict[str, List[Tuple[int, Region]]] = {}
            for w in self.workers:
                for region in w.fabric.regions:
                    if region.state is RegionState.READY and region.function:
                        hosted.setdefault(region.function, []).append(
                            (w.worker_id, region)
                        )
            self._hosted = hosted
            self._hosted_generation = generation
        return self._hosted

    # ------------------------------------------------------------------
    # UNIMEM transactions
    # ------------------------------------------------------------------
    def hop_distance(self, a: int, b: int) -> int:
        return self._hops[a][b]

    def hop_row(self, a: int) -> List[int]:
        """Hop counts from Worker ``a`` to every Worker, indexed by id
        (a shared table row: read it, do not modify it)."""
        return self._hops[a]

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
        self.ledger.add(self.noc_category, energy)
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
        self.ledger.add(self.noc_category, self.network.total_energy_pj() - energy_before)
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
