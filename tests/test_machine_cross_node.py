"""Unit tests for the cross-node progressive address translator."""

from repro.core import ComputeNodeParams, Machine, MachineParams
from repro.sim import Simulator


def make_machine(nodes=4, fanouts=None, workers=2):
    return Machine(
        Simulator(),
        MachineParams(
            num_nodes=nodes,
            node=ComputeNodeParams(num_workers=workers),
            inter_node_fanouts=fanouts,
        ),
    )


class TestClusterTranslator:
    def test_depth_matches_hierarchy(self):
        flat = make_machine(4, fanouts=[4])
        deep = make_machine(8, fanouts=[2, 2, 2])
        assert len(deep.cluster_translator().steps) > len(
            flat.cluster_translator().steps
        )

    def test_local_address_free(self):
        machine = make_machine()
        tr = machine.cluster_translator()
        _, lat, applied = tr.translate(0x100)
        assert lat == 0.0 and applied == []

    def test_top_alias_costs_full_depth(self):
        machine = make_machine(8, fanouts=[2, 2, 2])
        tr = machine.cluster_translator()
        addr = len(tr.steps) * (1 << 30)
        _, lat, applied = tr.translate(addr)
        assert len(applied) == len(tr.steps)
        assert lat > 0

