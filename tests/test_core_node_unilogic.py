"""Unit tests for ComputeNode, UNIMEM transactions and UNILOGIC sharing."""

import pytest

from repro.core import (
    ComputeNode,
    ComputeNodeParams,
    Machine,
    MachineParams,
    UnilogicDomain,
)
from repro.fabric import ModuleLibrary
from repro.hls import HlsTool, SynthesisConstraints, saxpy_kernel
from repro.memory import AddressRange
from repro.sim import Simulator, spawn


@pytest.fixture(scope="module")
def saxpy_module():
    lib = ModuleLibrary()
    HlsTool().compile(saxpy_kernel(1024), lib, SynthesisConstraints(max_variants=1))
    return lib.best_variant("saxpy")


def run(sim, gen):
    out = {}

    def proc():
        out["value"] = yield from gen

    spawn(sim, proc())
    sim.run()
    return out.get("value")


class TestComputeNode:
    def test_construction(self):
        node = ComputeNode(Simulator(), ComputeNodeParams(num_workers=4))
        assert len(node) == 4
        assert len(node.endpoints) == 4
        assert node.unimem.num_workers == 4
        assert len(node.numa) == 4

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ComputeNodeParams(num_workers=0)
        with pytest.raises(ValueError):
            ComputeNodeParams(dram_window=0)
        for fanout in (0, -1):
            with pytest.raises(ValueError, match="intra_fanout"):
                ComputeNodeParams(num_workers=4, intra_fanout=fanout)
        # None stays single level: every pair is two hops apart
        flat = ComputeNode(Simulator(), ComputeNodeParams(num_workers=4, intra_fanout=None))
        assert flat.hop_distance(0, 3) == 2

    def test_hop_distance_symmetric(self):
        node = ComputeNode(Simulator(), ComputeNodeParams(num_workers=4))
        assert node.hop_distance(0, 0) == 0
        assert node.hop_distance(0, 3) == node.hop_distance(3, 0) == 2

    def test_two_level_intra_fanout(self):
        node = ComputeNode(
            Simulator(), ComputeNodeParams(num_workers=8, intra_fanout=4)
        )
        assert node.hop_distance(0, 1) == 2   # same L0 switch
        assert node.hop_distance(0, 7) == 4   # across the node root

    def test_transfer_cost_zero_local(self):
        node = ComputeNode(Simulator(), ComputeNodeParams(num_workers=2))
        assert node.transfer_cost(1, 1, 4096) == (0.0, 0.0)

    def test_transfer_charges_ledger(self):
        sim = Simulator()
        node = ComputeNode(sim, ComputeNodeParams(num_workers=2))
        run(sim, node.transfer(0, 1, 4096))
        assert node.ledger.total_pj(f"{node.name}.noc") > 0

    def test_remote_access_local_vs_remote(self):
        sim = Simulator()
        node = ComputeNode(sim, ComputeNodeParams(num_workers=2))
        local = run(sim, node.remote_access(0, AddressRange(0, 4096), False))
        remote_base = node.unimem.map.global_address(1, 0)
        remote = run(
            sim, node.remote_access(0, AddressRange(remote_base, 4096), False)
        )
        assert remote > local  # NoC + remote DRAM vs local DRAM only
        assert node.unimem.remote_bytes == 4096

    def test_fabric_summary(self):
        node = ComputeNode(Simulator(), ComputeNodeParams(num_workers=2))
        s = node.fabric_summary()
        assert s["workers"] == 2
        assert s["reconfigurations"] == 0


class TestUnilogic:
    def make(self, workers=4):
        sim = Simulator()
        node = ComputeNode(sim, ComputeNodeParams(num_workers=workers))
        return sim, node, UnilogicDomain(node)

    def test_no_region_raises(self):
        sim, node, uni = self.make()

        def proc():
            yield from uni.invoke("saxpy", 0, 100)

        spawn(sim, proc())
        with pytest.raises(LookupError):
            sim.run()

    def test_local_invocation(self, saxpy_module):
        sim, node, uni = self.make()
        run(sim, node.worker(0).load_module(saxpy_module))
        acc = run(sim, uni.invoke("saxpy", caller_worker=0, items=256, data_worker=0))
        assert acc.host_worker == 0
        assert not acc.remote_control and not acc.remote_data
        assert acc.latency_ns > saxpy_module.latency_ns(256)  # + data stream

    def test_remote_invocation_any_worker_can_call(self, saxpy_module):
        """The UNILOGIC headline: Workers invoke blocks they do not own."""
        sim, node, uni = self.make()
        run(sim, node.worker(3).load_module(saxpy_module))
        acc = run(sim, uni.invoke("saxpy", caller_worker=0, items=256, data_worker=3))
        assert acc.host_worker == 3
        assert acc.remote_control       # caller 0 -> host 3 registers
        assert not acc.remote_data      # data already at the host
        assert uni.remote_invocations == 1

    def test_remote_data_slower_than_local(self, saxpy_module):
        """ACE vs ACE-lite: a block far from the data pays per-touch NoC
        traffic and 'would not be as efficient as a local one'."""
        sim, node, uni = self.make()
        run(sim, node.worker(0).load_module(saxpy_module))
        local = run(sim, uni.invoke("saxpy", 0, 4096, data_worker=0, reuse_turns=2.0))
        remote = run(sim, uni.invoke("saxpy", 0, 4096, data_worker=1, reuse_turns=2.0))
        assert remote.latency_ns > local.latency_ns
        assert remote.remote_data

    def test_remote_gap_grows_with_reuse(self, saxpy_module):
        sim, node, uni = self.make()
        run(sim, node.worker(0).load_module(saxpy_module))

        def gap(reuse):
            local = run(sim, uni.invoke("saxpy", 0, 2048, data_worker=0, reuse_turns=reuse))
            remote = run(sim, uni.invoke("saxpy", 0, 2048, data_worker=1, reuse_turns=reuse))
            return remote.latency_ns - local.latency_ns

        assert gap(4.0) > gap(0.0)

    def test_nearest_region_prefers_data_locality(self, saxpy_module):
        sim, node, uni = self.make()
        run(sim, node.worker(0).load_module(saxpy_module))
        run(sim, node.worker(2).load_module(saxpy_module))
        host, _ = uni.nearest_region("saxpy", near_worker=2)
        assert host == 2
        host, _ = uni.nearest_region("saxpy", near_worker=0)
        assert host == 0

    def test_invoke_validation(self, saxpy_module):
        sim, node, uni = self.make()
        run(sim, node.worker(0).load_module(saxpy_module))

        def bad_items():
            yield from uni.invoke("saxpy", 0, 0)

        spawn(sim, bad_items())
        with pytest.raises(ValueError):
            sim.run()

    def test_utilization_by_worker(self, saxpy_module):
        sim, node, uni = self.make()
        run(sim, node.worker(1).load_module(saxpy_module))
        run(sim, uni.invoke("saxpy", 0, 128))
        run(sim, uni.invoke("saxpy", 2, 128))
        util = uni.utilization_by_worker()
        assert util[1] == 2
        assert util[0] == util[2] == util[3] == 0


class TestMachine:
    def test_construction_and_hops(self):
        machine = Machine(
            Simulator(),
            MachineParams(
                num_nodes=4,
                node=ComputeNodeParams(num_workers=4),
                inter_node_fanouts=[2, 2],
            ),
        )
        assert len(machine) == 4
        assert machine.total_workers == 16
        # intra diameter 2 + inter diameter 4
        assert machine.max_hop_distance() == 6

    def test_fanout_validation(self):
        with pytest.raises(ValueError):
            MachineParams(num_nodes=4, inter_node_fanouts=[3])
        with pytest.raises(ValueError):
            MachineParams(num_nodes=0)

    def test_world_communicator(self):
        machine = Machine(Simulator(), MachineParams(num_nodes=4))
        r = machine.world.allreduce(1024)
        assert r.rounds == 2

    def test_deeper_hierarchy_more_hops(self):
        """Section 2: petascale ~5 hops, exascale pushes to 6-7."""
        small = Machine(
            Simulator(),
            MachineParams(num_nodes=2, node=ComputeNodeParams(num_workers=4)),
        )
        big = Machine(
            Simulator(),
            MachineParams(
                num_nodes=8,
                node=ComputeNodeParams(num_workers=4),
                inter_node_fanouts=[2, 2, 2],
            ),
        )
        assert big.max_hop_distance() > small.max_hop_distance()
