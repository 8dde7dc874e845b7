"""Reconfigurable regions and the per-Worker fabric.

Each Worker's Reconfigurable Block (Fig. 4) is divided into
partially-reconfigurable regions.  A region holds at most one accelerator
module at a time; loading a different module is a partial reconfiguration
through the (single, serialized) configuration port -- the coarse-grain
time-sharing of Section 4.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from repro.fabric.floorplan import Placement
from repro.fabric.module_library import AcceleratorModule
from repro.fabric.resources import ResourceVector
from repro.sim import Simulator


class RegionState(Enum):
    EMPTY = "empty"
    LOADING = "loading"
    READY = "ready"


class RegionWatch:
    """A generation counter over a set of regions.

    Every write to a watched region's ``state`` or ``module`` bumps
    :attr:`generation`, so a cache of "which regions host what" stays
    valid exactly while the generation it was filled at is current --
    whoever made the write (reconfiguration, a fault, a test poking a
    region directly).
    """

    __slots__ = ("generation",)

    def __init__(self) -> None:
        self.generation = 0


@dataclass
class Region:
    """One partially-reconfigurable slot."""

    region_id: int
    placement: Placement
    state: RegionState = RegionState.EMPTY
    module: Optional[AcceleratorModule] = None
    loads: int = 0
    last_used_at: float = 0.0
    #: bumped on every ``state``/``module`` write (see :class:`RegionWatch`)
    watch: Optional[RegionWatch] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if name == "state" or name == "module":
            watch = self.watch
            if watch is not None:
                watch.generation += 1

    @property
    def capacity(self) -> ResourceVector:
        return self.placement.resources

    @property
    def function(self) -> Optional[str]:
        return self.module.function if self.module else None

    def can_host(self, module: AcceleratorModule) -> bool:
        return module.resources.fits_in(self.capacity)


class Fabric:
    """A Worker's set of reconfigurable regions."""

    def __init__(self, sim: Simulator, placements: List[Placement], name: str = "") -> None:
        if not placements:
            raise ValueError("a fabric needs at least one region")
        self.sim = sim
        self.name = name
        self.regions = [Region(i, p) for i, p in enumerate(placements)]

    def __len__(self) -> int:
        return len(self.regions)

    @property
    def total_capacity(self) -> ResourceVector:
        total = ResourceVector()
        for r in self.regions:
            total = total + r.capacity
        return total

    def region_with_function(self, function: str) -> Optional[Region]:
        """A READY region currently hosting ``function`` (MRU first)."""
        hosting = [
            r
            for r in self.regions
            if r.state is RegionState.READY and r.function == function
        ]
        if not hosting:
            return None
        return max(hosting, key=lambda r: r.last_used_at)

    def loaded_functions(self) -> List[str]:
        return sorted(
            {r.function for r in self.regions if r.state is RegionState.READY and r.function}
        )

    def free_regions(self) -> List[Region]:
        return [r for r in self.regions if r.state is RegionState.EMPTY]

    def victim_region(self, module: AcceleratorModule) -> Optional[Region]:
        """Choose where to load ``module``: an empty fitting region first,
        else the least-recently-used fitting READY region (eviction)."""
        fitting_empty = [r for r in self.free_regions() if r.can_host(module)]
        if fitting_empty:
            return fitting_empty[0]
        fitting_ready = [
            r
            for r in self.regions
            if r.state is RegionState.READY and r.can_host(module)
        ]
        if fitting_ready:
            return min(fitting_ready, key=lambda r: r.last_used_at)
        return None

    def occupancy(self) -> float:
        ready = sum(1 for r in self.regions if r.state is not RegionState.EMPTY)
        return ready / len(self.regions)
