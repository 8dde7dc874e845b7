"""Design-space exploration under area/performance constraints.

"The ECOSCALE HLS tool will tackle this problem by providing a way to
specify performance and area constraints, and then automatically exploring
high-performance hardware implementation techniques" (Section 4.3).

The explorer sweeps a configuration grid, estimates every point, discards
infeasible ones, and reports the area/throughput Pareto front plus the
best point under the given constraints -- the automation that replaces the
"experienced designer" current tools require.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.fabric.resources import ResourceVector
from repro.hls.estimator import Estimate, HlsEstimator
from repro.hls.ir import Kernel
from repro.hls.transforms import HlsConfig, default_config_grid


@dataclass(frozen=True)
class DesignPoint:
    """One explored implementation: config + its estimate."""

    kernel: Kernel
    config: HlsConfig
    estimate: Estimate

    @property
    def area(self) -> float:
        return self.estimate.resources.area_units()

    @property
    def throughput(self) -> float:
        return self.estimate.throughput_items_per_us()

    def dominates(self, other: "DesignPoint") -> bool:
        """Pareto dominance: no worse in both axes, better in one."""
        return (
            self.area <= other.area
            and self.throughput >= other.throughput
            and (self.area < other.area or self.throughput > other.throughput)
        )


def pareto_front(points: Iterable[DesignPoint]) -> List[DesignPoint]:
    """Non-dominated subset, sorted by ascending area.

    Same front as filtering on :meth:`DesignPoint.dominates`, but each
    point's derived area and throughput are evaluated once, not on
    every comparison.
    """
    scored = [(p.area, p.throughput, p) for p in points]
    # a point never dominates itself (or an equal one), so no self-skip
    front = [
        s
        for s in scored
        if not any(
            qa <= s[0] and qt >= s[1] and (qa < s[0] or qt > s[1])
            for qa, qt, _ in scored
        )
    ]
    # dedup equal (area, throughput) pairs
    seen = set()
    unique = []
    for area, throughput, p in sorted(front, key=lambda s: (s[0], -s[1])):
        key = (round(area, 6), round(throughput, 9))
        if key not in seen:
            seen.add(key)
            unique.append(p)
    return unique


class DesignSpaceExplorer:
    """Sweeps a config grid for one kernel."""

    def __init__(self, estimator: Optional[HlsEstimator] = None) -> None:
        self.estimator = estimator or HlsEstimator()

    def explore(
        self,
        kernel: Kernel,
        configs: Optional[Sequence[HlsConfig]] = None,
        area_budget: Optional[ResourceVector] = None,
    ) -> List[DesignPoint]:
        """Estimate every config; drop those exceeding ``area_budget``."""
        if configs is None:
            configs = list(default_config_grid(kernel))
        points = []
        seen = set()
        for config in configs:
            if config in seen:
                continue
            seen.add(config)
            est = self.estimator.estimate(kernel, config)
            if area_budget is not None and not est.resources.fits_in(area_budget):
                continue
            points.append(DesignPoint(kernel, config, est))
        return points

    def best_under_constraints(
        self,
        kernel: Kernel,
        area_budget: ResourceVector,
        target_latency_ns: Optional[float] = None,
        items_hint: int = 4096,
        configs: Optional[Sequence[HlsConfig]] = None,
    ) -> Optional[DesignPoint]:
        """The designer-facing query: fastest point that fits the budget;
        if a latency target is given, the *smallest* point meeting it."""
        points = self.explore(kernel, configs, area_budget)
        if not points:
            return None
        if target_latency_ns is not None:
            meeting = [
                p for p in points if p.estimate.latency_ns(items_hint) <= target_latency_ns
            ]
            if meeting:
                return min(meeting, key=lambda p: p.area)
        return min(points, key=lambda p: p.estimate.latency_ns(items_hint))

    def front(
        self,
        kernel: Kernel,
        configs: Optional[Sequence[HlsConfig]] = None,
        area_budget: Optional[ResourceVector] = None,
    ) -> List[DesignPoint]:
        return pareto_front(self.explore(kernel, configs, area_budget))
