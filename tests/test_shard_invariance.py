"""Byte-identity of sharded runs across partition counts and backends.

The acceptance contract of the sharded engine: the canonical merged
report of every experiment is the same byte string whether the machine
ran in one partition (the single-threaded reference), several inline
partitions, or forked worker processes.  Also pins the template-based
bring-up (a templated node behaves exactly like a legacy one) and the
bench gate's handling of benchmarks the baseline has never seen.
"""

import os

import pytest

from repro import perf
from repro.shard import (
    TemplateCache,
    build_node,
    report_json,
    run_sharded_build,
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


def _fail_on_node_1(node_id, plan, config):
    """Per-node shard builder whose node 1 cannot be built."""
    from repro.shard import NodeCell
    from repro.sim import Simulator

    if node_id == 1:
        raise RuntimeError("node 1 bring-up failed")
    return NodeCell(node_id, Simulator())


@pytest.mark.skipif(not _HAS_FORK, reason="process backend needs fork")
def test_process_bringup_failure_reaps_every_child():
    import multiprocessing

    from repro.shard import PartitionPlan, ShardError
    from repro.shard.backends import ShardSet

    plan = PartitionPlan.build(3, 3)
    with pytest.raises(ShardError, match="partition 1 failed"):
        ShardSet(plan, _fail_on_node_1, {}, backend="process")
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
# template bring-up equivalence
# ----------------------------------------------------------------------
def test_templated_node_matches_legacy_node():
    import dataclasses
    import json

    from repro.apps import make_layered_dag
    from repro.core import ComputeNode
    from repro.core.runtime import ExecutionEngine
    from repro.presets import compiled_suite, node_preset
    from repro.sim import Simulator

    params = node_preset("mini")
    registry, library = compiled_suite(max_variants=1)

    def run(node_factory):
        sim = Simulator()
        node = node_factory(sim)
        engine = ExecutionEngine(
            node, registry, library, use_daemon=True,
            daemon_period_ns=100_000.0,
        )
        graph = make_layered_dag(
            layers=3, width=4, num_workers=len(node),
            functions=("saxpy", "stencil5", "montecarlo"), seed=7,
        )
        report = engine.run_graph(graph)
        return json.dumps(dataclasses.asdict(report), sort_keys=True)

    cache = TemplateCache()
    legacy = run(lambda sim: ComputeNode(sim, params))
    templated = run(lambda sim: build_node(sim, params, 0, cache))
    assert legacy == templated


def test_templated_numa_distances_match():
    from repro.core import ComputeNode
    from repro.presets import node_preset
    from repro.sim import Simulator

    params = node_preset("mini")
    legacy = ComputeNode(Simulator(), params)
    templated = build_node(Simulator(), params, 3, TemplateCache())
    assert legacy.numa.distance_table() == templated.numa.distance_table()
    assert len(legacy) == len(templated)


def test_sharded_build_matches_monolithic_machine():
    from repro.core import ComputeNodeParams, Machine, MachineParams
    from repro.sim import Simulator

    sharded = run_sharded_build(
        num_nodes=4, workers_per_node=4, inter_node_fanouts=[4], partitions=2
    )
    machine = Machine(
        Simulator(),
        MachineParams(
            num_nodes=4,
            node=ComputeNodeParams(num_workers=4),
            inter_node_fanouts=[4],
        ),
    )
    allreduce = machine.world.allreduce(4096)
    assert sharded["total_workers"] == machine.total_workers
    assert sharded["max_hop_distance"] == machine.max_hop_distance()
    assert sharded["allreduce"]["latency_ns"] == allreduce.latency_ns
    assert sharded["allreduce"]["rounds"] == allreduce.rounds
    assert sharded["allreduce"]["bytes_moved"] == allreduce.bytes_moved


# ----------------------------------------------------------------------
# bench gate: new benchmarks are reported, never failed
# ----------------------------------------------------------------------
def test_new_benchmarks_reported_not_failed():
    baseline = {"benchmarks": {"a": {"wall_seconds": 1.0}}}
    current = {
        "benchmarks": {
            "a": {"wall_seconds": 1.0},
            "b.shard4": {"wall_seconds": 9.9},
        }
    }
    assert perf.new_benchmarks(current, baseline) == ["b.shard4"]
    assert perf.compare(current, baseline) == []


def test_benchmark_registry_adds_shard_entries():
    r1 = perf.benchmark_registry(1)
    assert "machine.exascale_build.shard1" in r1
    assert "serving.steady.shard1" in r1
    assert not any(name.endswith(".shard4") for name in r1)
    r4 = perf.benchmark_registry(4)
    assert "machine.exascale_build.shard4" in r4
    assert "serving.steady.shard4" in r4
    # historical names survive so committed baselines stay comparable
    assert set(perf.BENCHMARKS) <= set(r4)
