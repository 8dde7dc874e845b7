"""The partial-reconfiguration driver backend.

Wraps a Worker's :class:`~repro.fabric.reconfiguration.ReconfigurationController`
with the virtualization features of Section 4.3: ensure-loaded semantics,
fabric defragmentation, accelerator migration between regions/Workers,
and pre-emptive hardware execution (checkpoint the pipeline state, yield
the region, restore later).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from repro.core.worker import Worker
from repro.fabric.module_library import AcceleratorModule, ModuleLibrary
from repro.fabric.region import Region, RegionState
from repro.sim import Timeout
from repro.telemetry.quantiles import fold_sum


@dataclass
class DefragReport:
    moves: int
    freed_regions: int
    largest_free_area_before: float
    largest_free_area_after: float


@dataclass
class _PreemptedContext:
    module: AcceleratorModule
    checkpoint_bytes: int


class PartialReconfigDriver:
    """Driver for one Worker's fabric."""

    #: accelerator architectural state captured on pre-emption
    CHECKPOINT_BYTES = 4096
    #: DRAM-side save/restore throughput (GB/s)
    CHECKPOINT_BW_GBPS = 2.0

    def __init__(self, worker: Worker) -> None:
        self.worker = worker
        self.migrations = 0
        self.preemptions = 0
        self._preempted: Dict[str, _PreemptedContext] = {}

    # ------------------------------------------------------------------
    def ensure_loaded(self, module: AcceleratorModule) -> Generator:
        """Load unless an identical module is already resident.

        Returns the hosting region (or ``None`` if nothing fits).
        """
        region = self.worker.fabric.region_with_function(module.function)
        if region is not None and region.module is not None and region.module.name == module.name:
            return region
        region = yield from self.worker.load_module(module)
        return region

    # ------------------------------------------------------------------
    def fragmentation(self) -> float:
        """1 - (largest free contiguous area / total free area).

        0 means all free capacity is in one usable hole; near 1 means the
        free capacity is scattered in unusably small regions.
        """
        free = [r.capacity.area_units() for r in self.worker.fabric.free_regions()]
        total = fold_sum(free)
        if total == 0:
            return 0.0
        return 1.0 - max(free) / total

    def defragment(self) -> Generator:
        """Consolidate loaded modules into the smallest regions that fit,
        freeing the largest regions for future big modules.

        Each move is a real partial reconfiguration (it streams the
        module's bitstream into the new region).
        """
        fabric = self.worker.fabric
        before = max(
            (r.capacity.area_units() for r in fabric.free_regions()), default=0.0
        )
        moves = 0
        # consider loaded modules smallest-region-first
        loaded = [
            r for r in fabric.regions if r.state is RegionState.READY and r.module
        ]
        for region in sorted(loaded, key=lambda r: r.capacity.area_units(), reverse=True):
            module = region.module
            # the smallest *free* region that still fits the module
            candidates = [
                r
                for r in fabric.free_regions()
                if r.can_host(module)
                and r.capacity.area_units() < region.capacity.area_units()
            ]
            if not candidates:
                continue
            target = min(candidates, key=lambda r: r.capacity.area_units())
            loaded_region = yield from self.worker.load_module(module, target)
            if loaded_region is not None:
                self.worker.reconfig.unload(region)
                moves += 1
        after = max(
            (r.capacity.area_units() for r in fabric.free_regions()), default=0.0
        )
        return DefragReport(
            moves=moves,
            freed_regions=len(fabric.free_regions()),
            largest_free_area_before=before,
            largest_free_area_after=after,
        )

    # ------------------------------------------------------------------
    def migrate(self, region: Region, target_driver: "PartialReconfigDriver") -> Generator:
        """Move a loaded accelerator to another Worker's fabric.

        Returns the destination region, or ``None`` if the target cannot
        host it.  Source is blanked only after the destination is READY
        (make-before-break, so the function stays callable domain-wide).
        """
        if region.module is None:
            raise ValueError("cannot migrate an empty region")
        module = region.module
        dest = yield from target_driver.worker.load_module(module)
        if dest is None:
            return None
        self.worker.reconfig.unload(region)
        self.migrations += 1
        target_driver.migrations += 1
        return dest

    # ------------------------------------------------------------------
    def _checkpoint_ns(self) -> float:
        return self.CHECKPOINT_BYTES / self.CHECKPOINT_BW_GBPS

    def preempt(self, region: Region) -> Generator:
        """Pre-emptive hardware execution: save the accelerator context
        and free the region for a higher-priority module."""
        if region.module is None:
            raise ValueError("cannot preempt an empty region")
        module = region.module
        yield Timeout(self._checkpoint_ns())
        self._preempted[module.name] = _PreemptedContext(
            module=module, checkpoint_bytes=self.CHECKPOINT_BYTES
        )
        self.worker.reconfig.unload(region)
        self.preemptions += 1
        return module.name

    def resume(self, module_name: str) -> Generator:
        """Reload a pre-empted module and restore its context.

        Returns the region (or ``None`` if nothing fits right now).
        """
        ctx = self._preempted.get(module_name)
        if ctx is None:
            raise KeyError(f"no pre-empted context for {module_name!r}")
        region = yield from self.worker.load_module(ctx.module)
        if region is None:
            return None
        yield Timeout(self._checkpoint_ns())
        del self._preempted[module_name]
        return region

    @property
    def preempted_modules(self) -> List[str]:
        return sorted(self._preempted)
