"""Unit tests for design-space exploration and end-to-end synthesis."""

import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.fabric import ModuleLibrary, ResourceVector, TileGrid
from repro.hls import (
    DesignPoint,
    DesignSpaceExplorer,
    HlsConfig,
    HlsTool,
    SynthesisConstraints,
    matmul_kernel,
    pareto_front,
    saxpy_kernel,
    vecadd_kernel,
)


class TestExplorer:
    def test_explore_covers_grid(self):
        dse = DesignSpaceExplorer()
        points = dse.explore(vecadd_kernel(64))
        assert len(points) > 10
        labels = {p.config.label() for p in points}
        assert len(labels) == len(points)  # dedup worked

    def test_area_budget_filters(self):
        dse = DesignSpaceExplorer()
        tight = ResourceVector(luts=2000, ffs=4000, brams=64, dsps=8)
        all_points = dse.explore(saxpy_kernel(64))
        tight_points = dse.explore(saxpy_kernel(64), area_budget=tight)
        assert 0 < len(tight_points) < len(all_points)
        for p in tight_points:
            assert p.estimate.resources.fits_in(tight)

    def test_front_is_nondominated(self):
        dse = DesignSpaceExplorer()
        front = dse.front(vecadd_kernel(64))
        assert front
        for i, a in enumerate(front):
            for j, b in enumerate(front):
                if i != j:
                    assert not a.dominates(b)

    def test_front_sorted_by_area_and_tradeoff_real(self):
        dse = DesignSpaceExplorer()
        front = dse.front(matmul_kernel(16))
        areas = [p.area for p in front]
        assert areas == sorted(areas)
        if len(front) > 1:
            # more area must buy more throughput along the front
            assert front[-1].throughput > front[0].throughput

    def test_best_under_constraints_fastest_fitting(self):
        dse = DesignSpaceExplorer()
        budget = ResourceVector(luts=10**6, ffs=10**6, brams=10**4, dsps=10**4)
        best = dse.best_under_constraints(vecadd_kernel(64), budget)
        assert best is not None
        points = dse.explore(vecadd_kernel(64), area_budget=budget)
        fastest = min(p.estimate.latency_ns(4096) for p in points)
        assert best.estimate.latency_ns(4096) == pytest.approx(fastest)

    def test_best_under_latency_target_minimizes_area(self):
        dse = DesignSpaceExplorer()
        budget = ResourceVector(luts=10**6, ffs=10**6, brams=10**4, dsps=10**4)
        loose_target = 10**9  # everything meets it
        best = dse.best_under_constraints(
            vecadd_kernel(64), budget, target_latency_ns=loose_target
        )
        points = dse.explore(vecadd_kernel(64), area_budget=budget)
        assert best.area == pytest.approx(min(p.area for p in points))

    def test_best_none_when_budget_impossible(self):
        dse = DesignSpaceExplorer()
        nothing = ResourceVector()
        assert dse.best_under_constraints(vecadd_kernel(64), nothing) is None

    def test_pareto_front_empty(self):
        assert pareto_front([]) == []


def _quadratic_front(points):
    """The reference definition: filter on ``dominates``, sort, dedup."""
    pts = list(points)
    front = [p for p in pts if not any(q.dominates(p) for q in pts if q is not p)]
    seen = set()
    unique = []
    for p in sorted(front, key=lambda p: (p.area, -p.throughput)):
        key = (round(p.area, 6), round(p.throughput, 9))
        if key not in seen:
            seen.add(key)
            unique.append(p)
    return unique


@dataclass(frozen=True, eq=False)
class _Point:
    area: float
    throughput: float

    dominates = DesignPoint.dominates


class TestParetoFront:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_quadratic_definition_with_ties(self, seed):
        rng = random.Random(seed)
        # few distinct values -> many ties on one or both axes
        points = [
            _Point(float(rng.randint(1, 6)), float(rng.randint(1, 6)))
            for _ in range(rng.randint(0, 30))
        ]
        # the same object twice, and an equal-valued twin
        if points:
            points.append(rng.choice(points))
            twin = rng.choice(points)
            points.insert(rng.randrange(len(points)), _Point(twin.area, twin.throughput))
        got = pareto_front(points)
        assert [id(p) for p in got] == [id(p) for p in _quadratic_front(points)]

    @pytest.mark.parametrize("kernel", [vecadd_kernel(64), saxpy_kernel(64), matmul_kernel(16)])
    def test_matches_quadratic_definition_on_explored_points(self, kernel):
        points = DesignSpaceExplorer().explore(kernel)
        got = pareto_front(points)
        assert [id(p) for p in got] == [id(p) for p in _quadratic_front(points)]


_SUITE_BITSTREAM_DIGEST = """
import hashlib
from repro.presets import compiled_suite
_, library = compiled_suite()
h = hashlib.sha256()
for function in library.functions():
    for module in library.variants(function):
        h.update(module.name.encode())
        h.update(module.bitstream.data)
print(h.hexdigest())
"""


def test_suite_bitstreams_do_not_depend_on_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", _SUITE_BITSTREAM_DIGEST],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1


class TestHlsTool:
    def test_compile_registers_variants(self):
        tool = HlsTool(TileGrid.standard(60, 50))
        lib = ModuleLibrary()
        report = tool.compile(vecadd_kernel(64), lib, SynthesisConstraints(max_variants=3))
        assert report.explored > 0
        assert report.front_size > 0
        assert 1 <= len(report.modules) <= 3
        assert "vecadd" in lib
        assert len(lib.variants("vecadd")) == len(report.modules)

    def test_variants_span_tradeoff(self):
        tool = HlsTool(TileGrid.standard(60, 50))
        lib = ModuleLibrary()
        tool.compile(matmul_kernel(16), lib, SynthesisConstraints(max_variants=3))
        variants = lib.variants("matmul")
        if len(variants) >= 2:
            areas = [v.resources.area_units() for v in variants]
            assert max(areas) > min(areas)

    def test_modules_have_plausible_timing(self):
        tool = HlsTool()
        lib = ModuleLibrary()
        tool.compile(saxpy_kernel(64), lib)
        for v in lib.variants("saxpy"):
            assert v.latency_ns(1000) > 0
            assert v.bitstream.size_bytes > 0
            assert v.initiation_interval >= 1

    def test_constraints_validation(self):
        with pytest.raises(ValueError):
            SynthesisConstraints(max_variants=0)
        with pytest.raises(ValueError):
            SynthesisConstraints(items_hint=0)

    def test_bitstream_frames_track_area(self):
        """Bigger variants occupy wider bounding boxes -> more frames ->
        bigger bitstreams (the floorplanner/compression coupling)."""
        tool = HlsTool(TileGrid.standard(60, 50))
        lib = ModuleLibrary()
        tool.compile(matmul_kernel(16), lib, SynthesisConstraints(max_variants=3))
        variants = sorted(lib.variants("matmul"), key=lambda v: v.resources.area_units())
        if len(variants) >= 2:
            assert variants[0].bitstream.frames <= variants[-1].bitstream.frames
