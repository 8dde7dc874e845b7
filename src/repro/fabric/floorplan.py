"""GoAhead-style floorplanning for partially reconfigurable modules.

The ECOSCALE Physical Implementation Tool "extends the existing GoAhead
framework" and performs "resource budgeting, floorplanning, communication
infrastructure synthesis and physical constraint generation ... By
minimizing module bounding boxes ... we will reduce memory requirements,
configuration latency and configuration power consumption" (Section 4.3).

The fabric is a column-structured tile grid like a real FPGA: most
columns are CLBs, with periodic BRAM and DSP columns.  The floorplanner
scans candidate bounding boxes (full-height column spans, matching
frame-based partial reconfiguration granularity) and picks the narrowest
span satisfying a module's :class:`ResourceVector` -- minimizing exactly
the quantity that determines bitstream size: the number of configuration
frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.fabric.resources import ResourceVector

#: resources provided by one tile of each column type, per grid row
_TILE_RESOURCES = {
    "clb": ResourceVector(luts=8, ffs=16),
    "bram": ResourceVector(brams=1),
    "dsp": ResourceVector(dsps=1),
}

#: configuration frames per column (independent of type, first order)
FRAMES_PER_COLUMN = 4


@dataclass(frozen=True)
class TileGrid:
    """A column-structured fabric: ``columns[i]`` is a column type string.

    The default pattern mirrors mid-size Zynq-class parts: a BRAM column
    every 6 columns and a DSP column every 7, CLBs elsewhere.
    """

    columns: Tuple[str, ...]
    rows: int = 50

    def __post_init__(self) -> None:
        if self.rows < 1 or not self.columns:
            raise ValueError("grid needs at least one row and one column")
        for c in self.columns:
            if c not in _TILE_RESOURCES:
                raise ValueError(f"unknown column type {c!r}")
        # Per-resource prefix sums so any column span is an O(1) query.
        # The floorplanner probes O(ncols^2) candidate spans per placement;
        # without these each probe allocated a ResourceVector per column.
        n = len(self.columns)
        rows = self.rows
        luts = [0] * (n + 1)
        ffs = [0] * (n + 1)
        brams = [0] * (n + 1)
        dsps = [0] * (n + 1)
        for i, c in enumerate(self.columns):
            r = _TILE_RESOURCES[c]
            luts[i + 1] = luts[i] + r.luts * rows
            ffs[i + 1] = ffs[i] + r.ffs * rows
            brams[i + 1] = brams[i] + r.brams * rows
            dsps[i + 1] = dsps[i] + r.dsps * rows
        object.__setattr__(self, "_prefix", (luts, ffs, brams, dsps))

    @classmethod
    def standard(cls, num_columns: int = 60, rows: int = 50) -> "TileGrid":
        cols = []
        for i in range(num_columns):
            if i % 7 == 3:
                cols.append("dsp")
            elif i % 6 == 2:
                cols.append("bram")
            else:
                cols.append("clb")
        return cls(tuple(cols), rows)

    def span_resources(self, start: int, width: int) -> ResourceVector:
        if start < 0 or width < 0 or start + width > len(self.columns):
            raise IndexError(f"span [{start}, {start + width}) outside grid")
        luts, ffs, brams, dsps = self._prefix  # type: ignore[attr-defined]
        end = start + width
        return ResourceVector(
            luts[end] - luts[start],
            ffs[end] - ffs[start],
            brams[end] - brams[start],
            dsps[end] - dsps[start],
        )

    @property
    def total_resources(self) -> ResourceVector:
        return self.span_resources(0, len(self.columns))


@dataclass(frozen=True)
class Placement:
    """A chosen bounding box: a contiguous column span."""

    start_column: int
    width: int
    resources: ResourceVector

    @property
    def frames(self) -> int:
        return self.width * FRAMES_PER_COLUMN

    def overlaps(self, other: "Placement") -> bool:
        return (
            self.start_column < other.start_column + other.width
            and other.start_column < self.start_column + self.width
        )


class Floorplanner:
    """Minimal-bounding-box placement onto a :class:`TileGrid`."""

    def __init__(self, grid: TileGrid) -> None:
        self.grid = grid

    def smallest_span(
        self,
        demand: ResourceVector,
        forbidden: Optional[List[Placement]] = None,
    ) -> Optional[Placement]:
        """The narrowest free column span covering ``demand``.

        Returns ``None`` when nothing fits.  Ties are broken leftmost,
        keeping free space consolidated (less fragmentation).
        """
        grid = self.grid
        ncols = len(grid.columns)
        occupied = [(p.start_column, p.start_column + p.width) for p in (forbidden or [])]
        luts, ffs, brams, dsps = grid._prefix  # type: ignore[attr-defined]
        need_l, need_f, need_b, need_d = demand.luts, demand.ffs, demand.brams, demand.dsps
        # Same scan order as the naive version (width-major, leftmost-first)
        # but each candidate is four prefix-sum diffs instead of a fresh
        # ResourceVector per column plus a Placement allocation.
        for width in range(1, ncols + 1):
            for start in range(0, ncols - width + 1):
                end = start + width
                if any(start < o_end and o_start < end for o_start, o_end in occupied):
                    continue
                if (
                    need_l <= luts[end] - luts[start]
                    and need_f <= ffs[end] - ffs[start]
                    and need_b <= brams[end] - brams[start]
                    and need_d <= dsps[end] - dsps[start]
                ):
                    return Placement(start, width, grid.span_resources(start, width))
        return None

    def budget_regions(self, region_count: int) -> List[Placement]:
        """Resource budgeting: carve the grid into ``region_count`` equal
        column spans -- the static region layout the middleware manages."""
        if region_count < 1:
            raise ValueError("need at least one region")
        ncols = len(self.grid.columns)
        if region_count > ncols:
            raise ValueError(
                f"cannot carve {region_count} regions out of {ncols} columns"
            )
        base = ncols // region_count
        extra = ncols % region_count
        placements = []
        start = 0
        for r in range(region_count):
            width = base + (1 if r < extra else 0)
            placements.append(
                Placement(start, width, self.grid.span_resources(start, width))
            )
            start += width
        return placements

    def fill_fraction(self, demand: ResourceVector, placement: Placement) -> float:
        """How much of the bounding box the module actually uses -- this
        drives bitstream compressibility (sparse boxes compress well)."""
        if placement.resources.is_zero:
            return 1.0
        frac = demand.utilization_of(placement.resources)
        return min(1.0, frac)
