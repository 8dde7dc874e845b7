"""The ECOSCALE Worker node (Fig. 4).

A Worker is "an independent computing unit that can execute, fork, and
join tasks or threads of an HPC application in parallel with the other
Workers.  It includes a CPU, a reconfigurable block and an off-chip DRAM
memory" (Section 4.1).  The block diagram adds the cache-coherent
interconnect with ACE (snooped, for cache-carrying masters) and ACE-lite
(non-snooped) ports, the dual-stage SMMU, and the Virtualization block in
front of the reconfigurable fabric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, Optional, Sequence

from repro.fabric.floorplan import Floorplanner, Placement, TileGrid
from repro.fabric.module_library import AcceleratorModule, ModuleLibrary
from repro.fabric.region import Fabric, Region
from repro.fabric.reconfiguration import ConfigPort, ReconfigurationController
from repro.fabric.virtualization import VirtualizedAccelerator
from repro.hls.ir import Kernel
from repro.hls.software import SoftwareCostModel
from repro.memory.cache import Cache, CacheGeometry
from repro.memory.dram import Dram, DramTiming
from repro.memory.smmu import Smmu
from repro.energy.accounting import EnergyLedger
from repro.sim import Resource, Simulator, Timeout


class FunctionRegistry:
    """Maps accelerable function names to their kernel IR.

    Both the software path (CPU cost model) and the HLS flow key off the
    same :class:`~repro.hls.ir.Kernel`, so HW/SW estimates stay
    comparable -- the property the runtime's device selection relies on.
    """

    def __init__(self) -> None:
        self._kernels: Dict[str, Kernel] = {}

    def register(self, kernel: Kernel) -> None:
        if kernel.name in self._kernels:
            raise ValueError(f"function {kernel.name!r} already registered")
        self._kernels[kernel.name] = kernel

    def kernel(self, function: str) -> Kernel:
        if function not in self._kernels:
            raise KeyError(f"unknown function {function!r}")
        return self._kernels[function]

    def __contains__(self, function: str) -> bool:
        return function in self._kernels

    def functions(self):
        return sorted(self._kernels)


@dataclass(frozen=True)
class WorkerParams:
    """Per-Worker hardware configuration (Zynq-Ultrascale-class defaults)."""

    cpu_cores: int = 4
    software: SoftwareCostModel = SoftwareCostModel()
    cache: CacheGeometry = CacheGeometry(size_bytes=1 << 20, line_bytes=64, associativity=16)
    dram: DramTiming = DramTiming()
    fabric_columns: int = 60
    fabric_rows: int = 50
    fabric_regions: int = 2
    config_port: ConfigPort = ConfigPort()
    use_config_compression: bool = True
    smmu_tlb_entries: int = 64

    def __post_init__(self) -> None:
        if self.cpu_cores < 1:
            raise ValueError("a Worker needs at least one CPU core")
        if self.fabric_regions < 1:
            raise ValueError("a Worker needs at least one reconfigurable region")


class Worker:
    """One Worker: CPU cluster, cache, DRAM, SMMU and reconfigurable block."""

    def __init__(
        self,
        sim: Simulator,
        worker_id: int,
        params: WorkerParams = WorkerParams(),
        ledger: Optional[EnergyLedger] = None,
        name: str = "",
        grid: Optional[TileGrid] = None,
        budget: Optional[Sequence[Placement]] = None,
    ) -> None:
        self.sim = sim
        self.worker_id = worker_id
        self.params = params
        self.name = name or f"worker{worker_id}"
        self.ledger = ledger if ledger is not None else EnergyLedger()
        # the ledger categories of the per-call paths, formatted once
        self.cpu_category = f"{self.name}.cpu"
        self.fabric_category = f"{self.name}.fabric"

        self.cpu = Resource(sim, capacity=params.cpu_cores, name=f"{self.name}.cpu")
        self.cache = Cache(params.cache, name=f"{self.name}.cache")
        self.dram = Dram(sim, params.dram, name=f"{self.name}.dram")
        self.smmu = Smmu(tlb_entries=params.smmu_tlb_entries, name=f"{self.name}.smmu")

        # a Compute Node passes its shape's shared TileGrid (and prefix
        # sums) and frozen region budget; a standalone Worker builds its own
        if grid is None:
            grid = TileGrid.standard(params.fabric_columns, params.fabric_rows)
        self.floorplanner = Floorplanner(grid)
        if budget is None:
            budget = self.floorplanner.budget_regions(params.fabric_regions)
        self.fabric = Fabric(sim, budget, name=f"{self.name}.fabric")
        self.reconfig = ReconfigurationController(
            sim,
            self.fabric,
            params.config_port,
            use_compression=params.use_config_compression,
            name=self.name,
        )
        # virtualization block front-ends, one per READY region
        self._accelerators: Dict[int, VirtualizedAccelerator] = {}

        self.sw_calls = 0
        self.hw_calls = 0
        # calls served per tenant job (multi-tenant runtime accounting)
        self.calls_by_job: Dict[int, int] = {}

    def note_job_call(self, job_id: int) -> None:
        """One runtime call served on this Worker for tenant ``job_id``."""
        self.calls_by_job[job_id] = self.calls_by_job.get(job_id, 0) + 1

    # ------------------------------------------------------------------
    # software execution path
    # ------------------------------------------------------------------
    def software_latency_ns(self, kernel: Kernel, items: int) -> float:
        return self.params.software.latency_ns(kernel, items)

    def run_software(self, kernel: Kernel, items: int) -> Generator:
        """Simulation process: run ``items`` iterations on one CPU core.

        ``energy = yield from worker.run_software(kernel, n)``: the call
        is priced once (latency and energy together), and only a
        completed call counts and is charged.  Returns the energy (pJ)
        it charged to this Worker's ledger.
        """
        latency, energy = self.params.software.cost(kernel, items)
        yield from self.cpu.use(latency)
        self.sw_calls += 1
        self.ledger.add(self.cpu_category, energy)
        return energy

    def run_software_batch(self, kernel: Kernel, chunks) -> Generator:
        """Simulation process: run independent work-group chunks concurrently.

        ``chunks`` is a sequence of per-chunk item counts; each chunk
        occupies one CPU core for its own latency, bounded by the core
        count exactly like per-chunk :meth:`run_software` processes --
        but the whole batch costs a couple of simulation events per chunk
        instead of a full process each.  Returns elapsed ns.
        """
        chunks = [items for items in chunks if items > 0]
        if not chunks:
            return 0.0
        start = self.sim.now
        software = self.params.software
        yield from self.cpu.use_batch(
            [software.latency_ns(kernel, items) for items in chunks]
        )
        self.sw_calls += len(chunks)
        for items in chunks:
            self.ledger.add(self.cpu_category, software.energy_pj(kernel, items))
        return self.sim.now - start

    # ------------------------------------------------------------------
    # reconfigurable block
    # ------------------------------------------------------------------
    def accelerator_for_region(self, region: Region) -> VirtualizedAccelerator:
        """The virtualization-block front-end of a READY region."""
        if region.module is None:
            raise ValueError(f"region {region.region_id} has no module loaded")
        accel = self._accelerators.get(region.region_id)
        if accel is None or accel.module is not region.module:
            accel = VirtualizedAccelerator(
                self.sim, region.module, pipelined=True,
                name=f"{self.name}.r{region.region_id}",
            )
            self._accelerators[region.region_id] = accel
        return accel

    def load_module(self, module: AcceleratorModule, region: Optional[Region] = None) -> Generator:
        """Simulation process: partial-reconfigure ``module`` in.

        Returns the region, or ``None`` when nothing fits.  Charges
        configuration energy to this Worker's ledger.
        """
        before = self.reconfig.config_energy_pj
        target = yield from self.reconfig.load(module, region)
        self.ledger.add(f"{self.name}.config", self.reconfig.config_energy_pj - before)
        if target is not None:
            self._accelerators.pop(target.region_id, None)
        return target

    def hosted_region(self, function: str) -> Optional[Region]:
        return self.fabric.region_with_function(function)

    def run_hardware(self, function: str, items: int) -> Generator:
        """Simulation process: invoke a locally loaded hardware function.

        Returns latency_ns.  Raises ``LookupError`` if not loaded -- the
        runtime decides loads, the Worker only executes.
        """
        region = self.hosted_region(function)
        if region is None:
            raise LookupError(f"function {function!r} is not loaded on {self.name}")
        accel = self.accelerator_for_region(region)
        start = self.sim.now
        before = accel.energy_pj
        yield from accel.call(self.name, items)
        region.last_used_at = self.sim.now
        self.hw_calls += 1
        self.ledger.add(self.fabric_category, accel.energy_pj - before)
        return self.sim.now - start

    # ------------------------------------------------------------------
    # local memory path
    # ------------------------------------------------------------------
    def local_stream(self, offset: int, size: int, is_write: bool = False, reuse: float = 0.0) -> Generator:
        """Simulation process: stream ``size`` bytes to/from local DRAM.

        ``reuse`` in [0, 1) is the fraction of traffic served by the local
        cache (ACE path); only the remainder touches DRAM.
        """
        if not 0.0 <= reuse < 1.0:
            raise ValueError(f"reuse must be in [0, 1), got {reuse}")
        dram_bytes = max(1, int(size * (1.0 - reuse)))
        energy_before = self.dram.energy_pj
        latency = self.dram.access(offset % self.params.dram.capacity_bytes, dram_bytes, is_write)
        yield Timeout(latency)
        self.ledger.add(f"{self.name}.dram", self.dram.energy_pj - energy_before)
        return latency

    #: per-line hit service time of the coherent (ACE-side) cache
    CACHE_HIT_NS = 2.0
    #: energy of one cache lookup/fill
    CACHE_ACCESS_PJ = 0.5

    def cached_access(self, offset: int, size: int, is_write: bool = False) -> Generator:
        """Simulation process: a CPU-side coherent access through this
        Worker's cache (the ACE path of Fig. 4).

        Unlike :meth:`local_stream` (whose ``reuse`` is an *assumed*
        locality figure for accelerator streaming), this drives the real
        tag array: hits are served at cache speed, only misses (plus
        dirty evictions) touch DRAM.  Returns the latency.
        """
        if size <= 0:
            raise ValueError(f"access size must be positive, got {size}")
        hits, misses = self.cache.touch_range(offset, size, is_write)
        line = self.cache.geometry.line_bytes
        latency = hits * self.CACHE_HIT_NS
        energy_before = self.dram.energy_pj
        if misses:
            latency += self.dram.access(
                offset % self.params.dram.capacity_bytes, misses * line, is_write
            )
        self.ledger.add(f"{self.name}.dram", self.dram.energy_pj - energy_before)
        self.ledger.add(
            f"{self.name}.cache", (hits + misses) * self.CACHE_ACCESS_PJ
        )
        yield Timeout(latency)
        return latency

    def drop_cache_range(self, offset: int, size: int) -> int:
        """Invalidate the lines of one range (page re-homing support);
        returns the number of dirty lines written back."""
        return self.cache.flush_page(offset, size)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Worker {self.name} regions={len(self.fabric)}>"
