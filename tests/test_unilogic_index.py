"""The placement index: per-node hop table and memoized region lookups.

``ComputeNode.hop_distance`` reads a worker x worker table built at
bring-up, and ``UnilogicDomain.nearest_region`` memoizes its answers
until any region of the node changes ``state`` or ``module``.  Both must
answer exactly what the uncached route/scan computation answers.
"""

import pytest

from repro.chaos.experiment import run_chaos_experiment
from repro.core import ComputeNode, ComputeNodeParams, UnilogicDomain
from repro.core.resilience import FaultInjector
from repro.fabric import ModuleLibrary
from repro.fabric.region import RegionState
from repro.hls import HlsTool, SynthesisConstraints, saxpy_kernel
from repro.presets import node_preset
from repro.serving.gateway import run_serving_experiment
from repro.sim import Simulator


def scan_nearest(domain, function, near_worker):
    """The uncached reference: scan every region, price hops by route."""
    candidates = domain.hosting_regions(function)
    if not candidates:
        return None
    net, ep = domain.node.network, domain.node.endpoints
    return min(
        candidates,
        key=lambda pair: (net.route(ep[near_worker], ep[pair[0]]).hops, pair[0]),
    )


def same_answer(got, want):
    if got is None or want is None:
        return got is want
    return got[0] == want[0] and got[1] is want[1]


@pytest.mark.parametrize(
    "make_params",
    [
        lambda: node_preset("mini"),
        lambda: node_preset("board"),
        lambda: node_preset("chassis"),
        lambda: ComputeNodeParams(num_workers=6, intra_fanout=4),
    ],
    ids=["mini", "board", "chassis", "fanout-6x4"],
)
def test_hop_table_matches_routes(make_params):
    node = ComputeNode(Simulator(), make_params())
    ep = node.endpoints
    for a in range(len(node)):
        for b in range(len(node)):
            assert node.hop_distance(a, b) == node.network.route(ep[a], ep[b]).hops


@pytest.fixture(scope="module")
def saxpy_module():
    lib = ModuleLibrary()
    HlsTool().compile(saxpy_kernel(1024), lib, SynthesisConstraints(max_variants=1))
    return lib.best_variant("saxpy")


def test_direct_region_writes_invalidate_the_memo(saxpy_module):
    node = ComputeNode(Simulator(), ComputeNodeParams(num_workers=4))
    uni = UnilogicDomain(node)
    assert uni.nearest_region("saxpy", 0) is None

    far = node.worker(3).fabric.regions[0]
    far.module = saxpy_module
    far.state = RegionState.READY
    assert uni.nearest_region("saxpy", 0) == (3, far)

    near = node.worker(0).fabric.regions[1]
    near.module = saxpy_module
    near.state = RegionState.READY
    assert uni.nearest_region("saxpy", 0) == (0, near)
    assert uni.nearest_region("saxpy", 3) == (3, far)

    near.state = RegionState.LOADING
    assert uni.nearest_region("saxpy", 0) == (3, far)
    far.module = None
    assert uni.nearest_region("saxpy", 0) is None
    assert uni.nearest_region("saxpy", 3) is None


@pytest.fixture
def checked_lookups(monkeypatch):
    """Check every nearest_region answer against the uncached scan."""
    original = UnilogicDomain.nearest_region
    seen = {"calls": 0, "hits": 0, "invalidations": 0, "region_faults": 0}
    last = {}

    def checked(self, function, near_worker):
        generation = self.node.region_watch.generation
        if last.get(id(self), generation) != generation:
            seen["invalidations"] += 1
        last[id(self)] = generation
        seen["hits"] += (
            generation == self._nearest_generation
            and (function, near_worker) in self._nearest
        )
        got = original(self, function, near_worker)
        assert same_answer(got, scan_nearest(self, function, near_worker))
        seen["calls"] += 1
        return got

    inject = FaultInjector.inject_region_fault

    def counted(self, worker_id, region_id):
        seen["region_faults"] += 1
        return inject(self, worker_id, region_id)

    monkeypatch.setattr(UnilogicDomain, "nearest_region", checked)
    monkeypatch.setattr(FaultInjector, "inject_region_fault", counted)
    return seen


def test_memo_matches_scan_under_chaos(checked_lookups):
    report = run_chaos_experiment("board", seed=0)
    assert report.integrity_ok
    assert checked_lookups["region_faults"] > 0
    assert checked_lookups["hits"] > 0
    assert checked_lookups["invalidations"] > 0


def test_memo_matches_scan_under_autoscaling(checked_lookups):
    report = run_serving_experiment("flash-crowd", seed=0)
    scaler = report.autoscaler
    assert scaler["loads"] > 0 and scaler["evictions"] > 0
    assert checked_lookups["hits"] > 0
    assert checked_lookups["invalidations"] > 0
