"""End-to-end synthesis: kernel -> placed accelerator modules.

This is the compile-time half of Fig. 2's middle layer: the HLS tool picks
implementation points (:mod:`repro.hls.dse`), the Physical Implementation
Tool floorplans each one onto the fabric grid (GoAhead-style,
:mod:`repro.fabric.floorplan`), assembles the partial bitstream, and the
results land in the runtime's :class:`~repro.fabric.ModuleLibrary`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import List, Optional

from repro.fabric.bitstream import Bitstream
from repro.fabric.floorplan import Floorplanner, TileGrid
from repro.fabric.module_library import AcceleratorModule, ModuleLibrary
from repro.fabric.resources import ResourceVector
from repro.hls.dse import DesignPoint, DesignSpaceExplorer, pareto_front
from repro.hls.ir import Kernel


@dataclass(frozen=True)
class SynthesisConstraints:
    """What the programmer may pin down; everything else is automated."""

    area_budget: Optional[ResourceVector] = None
    target_latency_ns: Optional[float] = None
    items_hint: int = 4096
    max_variants: int = 3

    def __post_init__(self) -> None:
        if self.max_variants < 1:
            raise ValueError("need at least one variant")
        if self.items_hint < 1:
            raise ValueError("items_hint must be positive")


@dataclass
class SynthesisReport:
    """What the tool did for one kernel."""

    kernel: Kernel
    explored: int
    front_size: int
    chosen: List[DesignPoint] = field(default_factory=list)
    modules: List[AcceleratorModule] = field(default_factory=list)


class HlsTool:
    """The ECOSCALE HLS + physical implementation pipeline."""

    def __init__(
        self,
        grid: Optional[TileGrid] = None,
        explorer: Optional[DesignSpaceExplorer] = None,
    ) -> None:
        self.grid = grid or TileGrid.standard()
        self.floorplanner = Floorplanner(self.grid)
        self.explorer = explorer or DesignSpaceExplorer()

    # ------------------------------------------------------------------
    def _region_budget(self, constraints: SynthesisConstraints) -> ResourceVector:
        if constraints.area_budget is not None:
            return constraints.area_budget
        return self.grid.total_resources

    def _select_points(
        self, kernel: Kernel, constraints: SynthesisConstraints
    ) -> tuple:
        budget = self._region_budget(constraints)
        points = self.explorer.explore(kernel, area_budget=budget)
        front = pareto_front(points)
        if not front:
            return points, front, []
        # spread picks across the front: smallest, fastest, and the knee
        chosen: List[DesignPoint] = []
        by_area = sorted(front, key=lambda p: p.area)
        chosen.append(by_area[0])
        if len(by_area) > 1:
            chosen.append(by_area[-1])
        if len(by_area) > 2 and constraints.max_variants > 2:
            knee = max(
                by_area[1:-1],
                key=lambda p: p.throughput / max(p.area, 1e-9),
            )
            if knee not in chosen:
                chosen.append(knee)
        # honor a latency target by ensuring a meeting point is included
        if constraints.target_latency_ns is not None:
            best = self.explorer.best_under_constraints(
                kernel,
                budget,
                constraints.target_latency_ns,
                constraints.items_hint,
            )
            if best is not None and best not in chosen:
                chosen.append(best)
        return points, front, chosen[: constraints.max_variants]

    def _build_module(self, point: DesignPoint, variant_idx: int) -> Optional[AcceleratorModule]:
        placement = self.floorplanner.smallest_span(point.estimate.resources)
        if placement is None:
            return None
        fill = self.floorplanner.fill_fraction(point.estimate.resources, placement)
        name = f"{point.kernel.name}.{point.config.label()}"
        bitstream = Bitstream.synthesize(
            name, placement.frames, fill, seed=zlib.crc32(name.encode()) & 0xFFFF
        )
        est = point.estimate
        return AcceleratorModule(
            name=name,
            function=point.kernel.name,
            resources=est.resources,
            bitstream=bitstream,
            initiation_interval=est.initiation_interval,
            pipeline_depth=est.pipeline_depth,
            clock_ns=est.clock_ns,
            energy_per_item_pj=est.energy_per_item_pj,
            static_power_mw=est.static_power_mw,
            parallel_lanes=est.lanes,
        )

    # ------------------------------------------------------------------
    def compile(
        self,
        kernel: Kernel,
        library: ModuleLibrary,
        constraints: SynthesisConstraints = SynthesisConstraints(),
    ) -> SynthesisReport:
        """Explore, choose variants, floorplan, and register modules."""
        points, front, chosen = self._select_points(kernel, constraints)
        report = SynthesisReport(
            kernel=kernel,
            explored=len(points),
            front_size=len(front),
            chosen=list(chosen),
        )
        for i, point in enumerate(chosen):
            module = self._build_module(point, i)
            if module is not None:
                library.add(module)
                report.modules.append(module)
        return report
