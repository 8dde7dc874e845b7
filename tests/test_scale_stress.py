"""Scale stress: nothing degenerates on a large machine / big workload."""

from repro.core import ComputeNodeParams, Machine, MachineParams
from repro.shard import run_sharded_jobs
from repro.sim import Simulator


def test_eight_node_cluster_run():
    """The mini job mix on 8 Compute Nodes: 432 tasks, all complete."""
    report = run_sharded_jobs("mini", seed=0, num_nodes=8)
    assert report["tasks"] == 432
    assert report["tasks_unrecovered"] == 0
    assert report["makespan_ns"] > 0
    # every node did real work, and no task was double-counted
    per_node = [
        node["machine"]["sw_calls"] + node["machine"]["hw_calls"]
        for node in report["nodes"].values()
    ]
    assert len(per_node) == 8
    assert all(n > 0 for n in per_node)
    assert sum(per_node) == 432


def test_large_machine_construction_fast():
    """A 512-worker machine builds and answers hierarchy queries."""
    machine = Machine(
        Simulator(),
        MachineParams(
            num_nodes=64,
            node=ComputeNodeParams(num_workers=8, intra_fanout=4),
            inter_node_fanouts=[4, 4, 4],
        ),
    )
    assert machine.total_workers == 512
    assert machine.max_hop_distance() >= 8
    r = machine.world.allreduce(4096)
    assert r.rounds == 6
