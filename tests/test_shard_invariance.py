"""Byte-identity of sharded runs across partition counts and backends.

The acceptance contract of the sharded engine: the canonical merged
report of every experiment is the same byte string whether the machine
ran in one partition (the single-threaded reference), several inline
partitions, or forked worker processes.  Also pins the shared bring-up:
a node built on a shape-memo hit behaves exactly like one built on a miss.
"""

import os

import pytest

from repro.shard import (
    report_json,
    run_sharded_chaos,
    run_sharded_jobs,
    run_sharded_serving,
)

_HAS_FORK = hasattr(os, "fork")


# ----------------------------------------------------------------------
# partition-count invariance
# ----------------------------------------------------------------------
def test_jobs_identical_at_1_2_4_partitions():
    reports = [
        run_sharded_jobs("mini", seed=0, num_nodes=4, partitions=p)
        for p in (1, 2, 4)
    ]
    blobs = [report_json(r) for r in reports]
    assert blobs[0] == blobs[1] == blobs[2]
    assert reports[0]["schema"] == "repro-shard-jobs/v1"
    assert reports[0]["tasks_unrecovered"] == 0
    # sync counters are part of the canonical report, so they must be
    # partition-invariant too
    assert reports[0]["sync"]["messages"] > 0


def test_serving_identical_at_1_and_2_partitions():
    r1 = run_sharded_serving("steady", seed=0, num_nodes=2, partitions=1)
    r2 = run_sharded_serving("steady", seed=0, num_nodes=2, partitions=2)
    assert report_json(r1) == report_json(r2)
    assert r1["offered"] == r1["completed"] + r1["shed"]
    assert r1["unrecovered"] == 0


def test_chaos_identical_at_1_and_2_partitions():
    r1 = run_sharded_chaos("mini", seed=0, num_nodes=2, partitions=1)
    r2 = run_sharded_chaos("mini", seed=0, num_nodes=2, partitions=2)
    assert report_json(r1) == report_json(r2)
    assert r1["integrity_ok"]
    assert r1["faults_injected"] > 0


_FOUR_NODE_CASES = {
    "jobs": lambda p: run_sharded_jobs("mini", seed=0, num_nodes=4, partitions=p),
    "serving": lambda p: run_sharded_serving(
        "steady", seed=0, num_nodes=4, partitions=p
    ),
    "chaos": lambda p: run_sharded_chaos("mini", seed=0, num_nodes=4, partitions=p),
}


def _keys(obj):
    """Every dict key anywhere in a JSON-shaped report."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield key
            yield from _keys(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _keys(value)


@pytest.mark.parametrize("experiment", sorted(_FOUR_NODE_CASES))
def test_four_node_report_identical_at_1_and_4_partitions(experiment):
    run = _FOUR_NODE_CASES[experiment]
    r1, r4 = run(1), run(4)
    assert report_json(r1) == report_json(r4)
    assert r1["schema"].startswith("repro-shard-")
    assert r1["sync"]["windows"] > 0
    # the partition layout is not part of the canonical report
    leaked = {"partitions", "backend"} & set(_keys(r1))
    assert not leaked, leaked


def test_jobs_seed_changes_report():
    r0 = run_sharded_jobs("mini", seed=0, num_nodes=2, partitions=2)
    r1 = run_sharded_jobs("mini", seed=1, num_nodes=2, partitions=2)
    assert report_json(r0) != report_json(r1)


_PROCESS_CASES = {
    "jobs": lambda backend: run_sharded_jobs(
        "mini", seed=0, num_nodes=4, partitions=4, backend=backend
    ),
    "serving": lambda backend: run_sharded_serving(
        "steady", seed=0, num_nodes=2, partitions=2, backend=backend
    ),
    "chaos": lambda backend: run_sharded_chaos(
        "mini", seed=0, num_nodes=2, partitions=2, backend=backend
    ),
}


@pytest.mark.skipif(not _HAS_FORK, reason="process backend needs fork")
@pytest.mark.parametrize("experiment", sorted(_PROCESS_CASES))
def test_process_backend_matches_inline(experiment):
    run = _PROCESS_CASES[experiment]
    assert report_json(run("inline")) == report_json(run("process"))


def _pid_node(node_id, plan, config):
    """Per-node shard builder whose fragment is the pid that built it."""
    from repro.shard import NodeCell
    from repro.sim import Simulator

    cell = NodeCell(node_id, Simulator())
    built_in = os.getpid()
    cell.fragment = lambda: {"pid": built_in}
    return cell


@pytest.mark.skipif(not _HAS_FORK, reason="process backend needs fork")
@pytest.mark.parametrize("partitions", [1, 3])
def test_process_backend_runs_partition_0_in_the_coordinator(partitions):
    import multiprocessing

    from repro.shard import PartitionPlan
    from repro.shard.backends import ShardSet

    plan = PartitionPlan.build(2 * partitions, partitions)
    with ShardSet(plan, _pid_node, {}, backend="process") as shards:
        shards.run()
        pids = {nid: f["pid"] for nid, f in shards.fragments().items()}
    by_partition = [{pids[nid] for nid in block} for block in plan.blocks()]
    assert all(len(block_pids) == 1 for block_pids in by_partition)
    coordinator, *children = [block_pids.pop() for block_pids in by_partition]
    assert coordinator == os.getpid()
    # one child per other partition, none at one partition
    assert len({coordinator, *children}) == partitions
    assert multiprocessing.active_children() == []


def _fail_on_node(failing):
    """Per-node shard builder whose node ``failing`` cannot be built."""

    def build(node_id, plan, config):
        from repro.shard import NodeCell
        from repro.sim import Simulator

        if node_id == failing:
            raise RuntimeError(f"node {failing} bring-up failed")
        return NodeCell(node_id, Simulator())

    return build


@pytest.mark.skipif(not _HAS_FORK, reason="process backend needs fork")
def test_process_bringup_failure_reaps_every_child():
    import multiprocessing

    from repro.shard import PartitionPlan, ShardError
    from repro.shard.backends import ShardSet

    plan = PartitionPlan.build(3, 3)
    # a child's bring-up fails: its traceback comes back as ShardError
    with pytest.raises(ShardError, match="partition 1 failed"):
        ShardSet(plan, _fail_on_node(1), {}, backend="process")
    assert multiprocessing.active_children() == []
    # partition 0 is built in the coordinator after the children are
    # forked: the builder's own error propagates, as under inline
    for backend in ("inline", "process"):
        with pytest.raises(RuntimeError, match="^node 0 bring-up failed$") as raised:
            ShardSet(plan, _fail_on_node(0), {}, backend=backend)
        assert type(raised.value) is RuntimeError
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "backend",
    ["inline", pytest.param("process", marks=pytest.mark.skipif(
        not _HAS_FORK, reason="process backend needs fork"))],
)
def test_serving_split_is_checked_before_any_fork(backend, monkeypatch):
    import dataclasses
    import multiprocessing

    from repro.presets import SERVING_PRESETS
    from repro.shard import ShardError

    steady = SERVING_PRESETS["steady"]
    one = dataclasses.replace(steady.tenants[0], name="t", requests=1)
    monkeypatch.setitem(
        SERVING_PRESETS, "one-request", dataclasses.replace(steady, tenants=(one,))
    )
    message = (
        "^tenant 't' has 1 requests, fewer than 2 nodes -- nothing to shard$"
    )
    with pytest.raises(ShardError, match=message):
        run_sharded_serving(
            "one-request", seed=0, num_nodes=2, partitions=2, backend=backend
        )
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# shared bring-up equivalence
# ----------------------------------------------------------------------
def _run_graph_json(node):
    import dataclasses
    import json

    from repro.apps import make_layered_dag
    from repro.core.runtime import ExecutionEngine
    from repro.presets import compiled_suite

    registry, library = compiled_suite(max_variants=1)
    engine = ExecutionEngine(
        node, registry, library, use_daemon=True, daemon_period_ns=100_000.0,
    )
    graph = make_layered_dag(
        layers=3, width=4, num_workers=len(node),
        functions=("saxpy", "stencil5", "montecarlo"), seed=7,
    )
    return json.dumps(dataclasses.asdict(engine.run_graph(graph)), sort_keys=True)


def test_templated_node_matches_legacy_node():
    """A node built from the shared shape memo (a memo hit) runs a task
    graph exactly like one whose shape was derived fresh (a memo miss)."""
    from repro.core import ComputeNode
    from repro.core.compute_node import _node_shape
    from repro.presets import node_preset
    from repro.sim import Simulator

    params = node_preset("mini")
    _node_shape.cache_clear()
    legacy = ComputeNode(Simulator(), params)
    assert _node_shape.cache_info().misses == 1
    templated = ComputeNode(Simulator(), params)
    assert _node_shape.cache_info().hits == 1
    assert _run_graph_json(legacy) == _run_graph_json(templated)


def test_templated_numa_distances_match():
    """The hop table and NUMA distances of a memo-hit node equal those of
    a node whose shape was derived fresh."""
    from repro.core import ComputeNode
    from repro.core.compute_node import _node_shape
    from repro.presets import node_preset
    from repro.sim import Simulator

    params = node_preset("mini")
    _node_shape.cache_clear()
    legacy = ComputeNode(Simulator(), params)
    templated = ComputeNode(Simulator(), params)
    assert _node_shape.cache_info().hits == 1
    n = len(legacy)
    assert len(templated) == n
    assert [[templated.hop_distance(a, b) for b in range(n)] for a in range(n)] == [
        [legacy.hop_distance(a, b) for b in range(n)] for a in range(n)
    ]
    assert [
        [templated.numa.distance(a, b) for b in range(n)] for a in range(n)
    ] == [[legacy.numa.distance(a, b) for b in range(n)] for a in range(n)]


def test_nodes_of_one_shape_share_grid_and_budget():
    from repro.presets import build_preset_node
    from repro.sim import Simulator

    a = build_preset_node(Simulator(), "board")
    b = build_preset_node(Simulator(), "board", node_id=1)
    wa, wb = a.workers[0], b.workers[0]
    assert wa.floorplanner.grid is wb.floorplanner.grid
    assert wa.fabric.regions[0].placement is wb.fabric.regions[0].placement
    # mutable state stays per node
    assert wa.fabric.regions[0] is not wb.fabric.regions[0]
    assert a.network is not b.network


def test_different_shapes_do_not_share_grid_or_budget():
    from repro.presets import build_preset_node
    from repro.sim import Simulator

    mini = build_preset_node(Simulator(), "mini").workers[0]
    board = build_preset_node(Simulator(), "board").workers[0]
    assert mini.floorplanner.grid is not board.floorplanner.grid
    assert mini.fabric.regions[0].placement is not board.fabric.regions[0].placement
