"""Sharded experiment harnesses: jobs, serving and chaos.

Each experiment decomposes the machine by Compute Node: every node gets
its *own* :class:`~repro.sim.Simulator` plus the full mechanism stack
(engine, workers, fabric, memory, intra-node interconnect).  All
*policy* decisions that need a global view -- serving brownout, the
chaos fault plan, partition/plan shapes -- happen on the coordinator or
on node 0 through bridge traffic, never by reaching into another node's
state.

A builder here (``build_*_node``) constructs exactly one node:
``(node_id, plan, config) -> NodeCell``.  It never sees partitions;
:func:`repro.shard.backends.build_partition` groups its cells into the
partitions the conservative window protocol (:mod:`repro.shard.sync`)
drives.  :class:`~repro.shard.backends.ShardSet` takes the builder
function itself, and the process backend sends it (by import path) and
its ``config`` to a worker that may have been forked several runs ago.
So a builder reads its inputs only from ``config``, never from a
registry: each ``run_sharded_*`` resolves its preset name to the spec
once, on the coordinator, and ships the spec.

Determinism notes:

* graph task ids are drawn from a node-scoped base
  (:func:`_task_id_base`) instead of the process-global counter, so the
  same node builds the same graph -- including retry-backoff jitter that
  is keyed by task id -- in any process and at any partition count;
* cross-node payloads fold in ascending node-id order everywhere;
* canonical reports carry the partition-invariant sync counters but
  never the partition count or backend.
"""

from __future__ import annotations

import itertools
import json
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

from repro.shard.merge import max_field, merged_report, sum_field
from repro.shard.plan import PartitionPlan, ShardError
from repro.shard.sync import NodeCell

#: serving control-plane cadence: every node reports its load to node 0
#: once per epoch, and node 0's decision rides back on the bridge
SERVE_EPOCH_NS = 250_000.0

#: per-node offsets keeping seeds/ids disjoint across node islands
_GRAPH_SEED_STRIDE = 101
_SERVE_SEED_STRIDE = 1009
_TASK_ID_STRIDE = 1_000_000


@contextmanager
def _task_id_base(base: int):
    """Draw task ids from a deterministic node-scoped counter.

    ``make_layered_dag`` numbers tasks from a process-global counter, so
    the ids a node's graph gets would depend on what else the process
    built before it -- and retry backoff jitter is keyed by task id.
    Scoping the counter makes every node's graph identical in any
    process and at any partition count.  The global counter is restored
    afterwards, so legacy single-machine paths are untouched.
    """
    import repro.apps.taskgraph as taskgraph

    saved = taskgraph._task_ids
    taskgraph._task_ids = itertools.count(base)
    try:
        yield
    finally:
        taskgraph._task_ids = saved


def _machine_fragment(manager) -> Dict[str, Any]:
    """One node's MachineReport as a plain (picklable) dict."""
    return json.loads(manager.collect().json())


# ======================================================================
# jobs: per-node multi-tenant mixes with cross-node stage-in
# ======================================================================
def build_jobs_node(node_id: int, plan: PartitionPlan, config: dict) -> NodeCell:
    """One Compute Node of the sharded multi-tenant jobs experiment.

    The node runs the full job mix of the preset (graph seeds offset per
    node).  Before it may submit its jobs it stages its inputs in from
    its neighbour ``(node_id + 1) % num_nodes``: a FETCH at t=0, a DATA
    reply on delivery, submission when the DATA lands -- deterministic
    cross-partition traffic on every run.
    """
    from repro.core.runtime import JobManager
    from repro.experiments import build_engine, job_mix_graphs, submit_job_mix
    from repro.presets import compiled_suite

    mix = config["mix"]
    engine = build_engine(
        mix.node,
        node_id=node_id,
        compiled=compiled_suite(max_variants=1),
    )
    sim = engine.node.sim
    manager = JobManager(engine)
    seed = config["seed"] + node_id * _GRAPH_SEED_STRIDE
    with _task_id_base(node_id * _TASK_ID_STRIDE):
        graphs = job_mix_graphs(mix, len(engine.node), seed)
    cell = NodeCell(node_id, sim)
    cell.closer = manager.abandon
    node_restore = (config.get("restore") or {}).get(str(node_id)) or {}
    completed = [job["completed"] for job in node_restore.get("jobs") or []]
    staged_at: Optional[float] = None

    def submit() -> None:
        nonlocal staged_at
        staged_at = sim.now
        submit_job_mix(manager, mix, completed=completed, graphs=graphs)

    if node_restore.get("staged"):
        # restored past the stage-in barrier: no fetch round, the jobs
        # resume at t=0 with their completed sets
        submit()
    else:
        gate = cell.gate(0.0)

        def request_stage(_: Any) -> None:
            peer = (node_id + 1) % plan.num_nodes
            cell.bridge.send(peer, "job-fetch", {"src": node_id}, plan.lookahead_ns)
            gate.next_send_ns = None

        def on_fetch(msg) -> None:
            src = msg.payload["src"]
            cell.bridge.send(src, "job-data", {"src": node_id}, plan.lookahead_ns)

        sim.schedule_at(0.0, request_stage)
        cell.on("job-fetch", on_fetch)
        cell.on("job-data", lambda msg: submit())

    def fragment() -> Dict[str, Any]:
        return {
            "machine": _machine_fragment(manager),
            "stage": {"staged_at_ns": staged_at},
        }

    def capturer() -> Dict[str, Any]:
        return {
            "time_ns": sim.now,
            "staged": staged_at is not None,
            "jobs": [
                {"completed": h.completed_indices(), "tasks": len(h.graph)}
                for h in manager.handles
            ],
        }

    cell.fragment = fragment
    cell.capturer = capturer
    return cell


def run_sharded_jobs(
    preset: str = "mini",
    seed: int = 0,
    num_nodes: int = 2,
    partitions: int = 1,
    backend: str = "auto",
    lookahead_ns: Optional[float] = None,
    restore: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Run the job mix on every node of a sharded machine; merged report."""
    from repro.presets import compiled_suite, job_preset
    from repro.shard.backends import ShardSet

    mix = job_preset(preset)  # resolve the name before any worker builds
    compiled_suite(max_variants=1)  # warm the HLS cache pre-fork
    plan = PartitionPlan.build(num_nodes, partitions, lookahead_ns)
    config: Dict[str, Any] = {"mix": mix, "seed": seed}
    if restore is not None:
        config["restore"] = restore
    with ShardSet(plan, build_jobs_node, config, backend) as shards:
        stats = shards.run()
        fragments = shards.fragments()
    header = {
        "preset": preset,
        "seed": seed,
        "num_nodes": num_nodes,
        "lookahead_ns": plan.lookahead_ns,
        "restored": restore is not None,
        "makespan_ns": max_field(fragments, "machine", "makespan_ns"),
        "tasks": int(sum_field(fragments, "machine", "tasks")),
        "energy_pj": sum_field(fragments, "machine", "energy_pj"),
        "tasks_unrecovered": int(
            sum_field(fragments, "machine", "tasks_unrecovered")
        ),
    }
    return merged_report(
        "repro-shard-jobs/v1", header, fragments, sync=stats.to_dict()
    )


# ======================================================================
# serving: per-node gateways under a node-0 brownout control plane
# ======================================================================
def _check_split(scenario, num_nodes: int) -> None:
    """Refuse a scenario whose request counts cannot cover every node."""
    for t in scenario.tenants:
        if t.arrival != "trace" and t.requests < num_nodes:
            raise ShardError(
                f"tenant {t.name!r} has {t.requests} requests, fewer than "
                f"{num_nodes} nodes -- nothing to shard"
            )


def _node_scenario(scenario, node_id: int, num_nodes: int):
    """Split one serving scenario across ``num_nodes`` gateway nodes.

    Request counts split evenly (remainder to the lowest node ids);
    trace tenants split their offset list round-robin.  The tenant mix,
    rates and SLOs stay identical on every node.  The caller has
    already run :func:`_check_split`.
    """
    from dataclasses import replace

    tenants = []
    for t in scenario.tenants:
        if t.arrival == "trace":
            offsets = t.trace_offsets_ns[node_id::num_nodes]
            tenants.append(
                replace(
                    t,
                    trace_offsets_ns=offsets,
                    requests=max(1, len(offsets)),
                )
            )
            continue
        share = t.requests // num_nodes + (
            1 if node_id < t.requests % num_nodes else 0
        )
        tenants.append(replace(t, requests=share))
    return replace(scenario, tenants=tuple(tenants))


def build_serving_node(node_id: int, plan: PartitionPlan, config: dict) -> NodeCell:
    """One gateway node of the sharded serving experiment.

    The node runs a full gateway over its slice of the request stream.
    Once per epoch it reports its instantaneous load to node 0; node 0
    (see :func:`_serve_coordinator`) broadcasts brownout enter/exit
    transitions and the final stop back over the bridge.
    """
    from repro.serving.brownout import BrownoutPolicy
    from repro.serving.gateway import build_serving_gateway

    gateway = build_serving_gateway(
        config["preset"],
        seed=config["seed"] + node_id * _SERVE_SEED_STRIDE,
        brownout=BrownoutPolicy(),
        scenario=_node_scenario(config["scenario"], node_id, plan.num_nodes),
        node_id=node_id,
    )
    sim = gateway.sim
    gateway.start()
    cell = NodeCell(node_id, sim)
    gate = cell.gate(SERVE_EPOCH_NS)
    stopped = False
    epoch = 0

    # the tick is handed itself to reschedule: naming itself would make
    # the closure a reference cycle
    def epoch_tick(tick: Callable[..., None]) -> None:
        nonlocal epoch
        if stopped:
            gate.next_send_ns = None
            return
        snap = gateway.load_snapshot()
        load = {
            "node": node_id,
            "epoch": epoch,
            "outstanding": snap["outstanding"],
            "queued": snap["queued"],
            "drained": bool(snap["drained"]),
        }
        cell.bridge.send(0, "serve-load", load, plan.lookahead_ns)
        epoch += 1
        gate.next_send_ns = sim.now + SERVE_EPOCH_NS
        sim.schedule_at(gate.next_send_ns, tick, tick)

    def on_brownout(msg) -> None:
        if msg.payload["active"]:
            gateway.enter_brownout("shard-coordinator")
        else:
            gateway.exit_brownout()

    def on_stop(msg) -> None:
        nonlocal stopped
        stopped = True

    sim.schedule_at(SERVE_EPOCH_NS, epoch_tick, epoch_tick)
    cell.on("serve-brownout", on_brownout)
    cell.on("serve-stop", on_stop)
    coord = _serve_coordinator(cell, plan, config) if node_id == 0 else None

    def fragment() -> Dict[str, Any]:
        control = {"epochs_sent": epoch}
        if coord is not None:
            control["decisions"] = coord["decisions"]
            control["brownout_entries"] = coord["entries"]
            control["brownout_exits"] = coord["exits"]
        return {"serving": gateway.report().to_dict(), "control": control}

    cell.fragment = fragment
    return cell


def _serve_coordinator(cell: NodeCell, plan: PartitionPlan, config: dict) -> dict:
    """Node 0's brownout control plane; returns its live decision counters.

    When an epoch's last load report lands, node 0 folds the reports in
    node order and broadcasts the brownout transition (or the final
    stop once every node has drained).
    """
    coord = dict(active=False, stopped=False, decisions=0, entries=0, exits=0)
    buckets: Dict[int, List[dict]] = {}

    def broadcast(kind: str, payload: dict) -> None:
        for dst in range(plan.num_nodes):
            cell.bridge.send(dst, kind, payload, plan.lookahead_ns)

    def on_load(msg) -> None:
        epoch = msg.payload["epoch"]
        bucket = buckets.setdefault(epoch, [])
        bucket.append(msg.payload)
        if len(bucket) < plan.num_nodes:
            return
        loads = sorted(buckets.pop(epoch), key=lambda e: e["node"])
        coord["decisions"] += 1
        if all(e["drained"] for e in loads):
            if not coord["stopped"]:
                coord["stopped"] = True
                broadcast("serve-stop", {"epoch": epoch})
            return
        total = sum(e["outstanding"] + e["queued"] for e in loads)
        if not coord["active"] and total > config["brownout_enter"]:
            coord["active"] = True
            coord["entries"] += 1
            broadcast("serve-brownout", {"active": True, "epoch": epoch})
        elif coord["active"] and total < config["brownout_exit"]:
            coord["active"] = False
            coord["exits"] += 1
            broadcast("serve-brownout", {"active": False, "epoch": epoch})

    cell.on("serve-load", on_load)
    return coord


def run_sharded_serving(
    preset: str = "steady",
    seed: int = 0,
    num_nodes: int = 2,
    partitions: int = 1,
    backend: str = "auto",
    brownout_enter: Optional[int] = None,
    brownout_exit: Optional[int] = None,
) -> Dict[str, Any]:
    """Serve one preset across ``num_nodes`` gateway nodes; merged report."""
    from repro.presets import compiled_suite, serving_preset
    from repro.shard.backends import ShardSet

    scenario = serving_preset(preset)
    _check_split(scenario, num_nodes)  # before any worker builds
    compiled_suite(max_variants=2)
    plan = PartitionPlan.build(num_nodes, partitions)
    config = {
        "preset": preset,  # the name the node reports carry
        "scenario": scenario,
        "seed": seed,
        # default thresholds scale with the node count so the decision
        # is about per-node pressure, not machine size
        "brownout_enter": (
            brownout_enter if brownout_enter is not None else 40 * num_nodes
        ),
        "brownout_exit": (
            brownout_exit if brownout_exit is not None else 8 * num_nodes
        ),
    }
    with ShardSet(plan, build_serving_node, config, backend) as shards:
        stats = shards.run()
        fragments = shards.fragments()
    header = {
        "preset": preset,
        "seed": seed,
        "num_nodes": num_nodes,
        "lookahead_ns": plan.lookahead_ns,
        "horizon_ns": max_field(fragments, "serving", "horizon_ns"),
        "offered": int(sum_field(fragments, "serving", "offered")),
        "admitted": int(sum_field(fragments, "serving", "admitted")),
        "shed": int(sum_field(fragments, "serving", "shed")),
        "completed": int(sum_field(fragments, "serving", "completed")),
        "unrecovered": int(sum_field(fragments, "serving", "unrecovered")),
        "batches": int(sum_field(fragments, "serving", "batches")),
    }
    return merged_report(
        "repro-shard-serving/v1", header, fragments, sync=stats.to_dict()
    )


# ======================================================================
# chaos: per-node workloads under a node-0 fault commander
# ======================================================================
def build_chaos_node(node_id: int, plan: PartitionPlan, config: dict) -> NodeCell:
    """One Compute Node of the sharded chaos experiment.

    Phase A (bring-up): the node runs its workload fault-free on a
    throwaway machine to pin down the baseline makespan and workload
    signature.  Phase B (the shard run): the same workload starts at
    t=0 with the self-healing runtime armed; the node announces its
    baseline to node 0, which derives the seeded global fault plan and
    sends each KILL so it is *delivered* exactly at its planned time.
    """
    from repro.apps.taskgraph import graph_signature
    from repro.chaos.controller import seeded_node_plan
    from repro.core.runtime import JobManager
    from repro.experiments import build_engine, layered_graph
    from repro.presets import compiled_suite

    preset = config["chaos"]
    compiled = compiled_suite(max_variants=1)
    graph_seed = preset.graph_seed + config["seed"] + node_id * _GRAPH_SEED_STRIDE

    # ---- phase A: fault-free baseline on a throwaway machine ----------
    base_engine = build_engine(preset.node, node_id=node_id, compiled=compiled)
    with _task_id_base(node_id * _TASK_ID_STRIDE):
        base_graph = layered_graph(
            preset.layers, preset.width, len(base_engine.node), graph_seed
        )
    baseline = base_engine.run_graph(base_graph)

    # ---- phase B: armed runtime, workload from t=0 --------------------
    engine = build_engine(
        preset.node,
        node_id=node_id,
        compiled=compiled,
        fault_tolerance=preset.fault_tolerance(),
    )
    node, sim = engine.node, engine.node.sim
    manager = JobManager(engine, fair_share=False)
    with _task_id_base(node_id * _TASK_ID_STRIDE + _TASK_ID_STRIDE // 2):
        graph = layered_graph(preset.layers, preset.width, len(node), graph_seed)
    manager.submit_job(graph)

    cell = NodeCell(node_id, sim)
    gate = cell.gate(0.0)
    injected: List[dict] = []

    def announce(_: Any) -> None:
        ready = {
            "node": node_id,
            "makespan_ns": baseline.makespan_ns,
            "workers": len(node),
        }
        cell.bridge.send(0, "chaos-ready", ready, plan.lookahead_ns)
        gate.next_send_ns = None

    def on_kill(msg) -> None:
        p = msg.payload
        transient = p["downtime_ns"] is not None
        engine.crash_worker(p["worker"], permanent=not transient)
        injected.append(
            {
                "worker": p["worker"],
                "at_ns": sim.now,
                "downtime_ns": p["downtime_ns"],
                "kind": "transient" if transient else "crash-stop",
            }
        )
        if transient:
            sim.schedule_at(
                sim.now + p["downtime_ns"], engine.recover_worker, p["worker"]
            )

    sim.schedule_at(0.0, announce)
    cell.on("chaos-kill", on_kill)

    if node_id == 0:
        ready: Dict[int, dict] = {}

        def on_ready(msg) -> None:
            ready[msg.payload["node"]] = msg.payload
            if len(ready) < plan.num_nodes:
                return
            now = sim.now
            for nid in sorted(ready):
                faults = seeded_node_plan(
                    config["seed"],
                    nid,
                    ready[nid]["workers"],
                    preset.fault_config(ready[nid]["makespan_ns"]),
                )
                for f in faults:
                    at = max(f["at_ns"], now + plan.lookahead_ns)
                    kill = {
                        "worker": f["worker"],
                        "at_ns": at,
                        "downtime_ns": f["downtime_ns"],
                    }
                    cell.bridge.send(nid, "chaos-kill", kill, at - now)

        cell.on("chaos-ready", on_ready)

    def fragment() -> Dict[str, Any]:
        chaos = _machine_fragment(manager)
        match = graph_signature(base_graph) == graph_signature(graph)
        return {
            "baseline": {
                "makespan_ns": baseline.makespan_ns,
                "tasks": baseline.tasks,
            },
            "chaos": chaos,
            "faults": injected,
            "workload_match": match,
            "integrity_ok": (
                match
                and chaos["tasks"] == baseline.tasks
                and chaos["tasks_unrecovered"] == 0
            ),
        }

    cell.fragment = fragment
    return cell


def run_sharded_chaos(
    preset: str = "mini",
    seed: int = 0,
    num_nodes: int = 2,
    partitions: int = 1,
    backend: str = "auto",
) -> Dict[str, Any]:
    """Chaos-test every node of a sharded machine; merged verdict report."""
    from repro.chaos.experiment import chaos_preset
    from repro.presets import compiled_suite
    from repro.shard.backends import ShardSet

    spec = chaos_preset(preset)  # resolve the name before any worker builds
    compiled_suite(max_variants=1)
    plan = PartitionPlan.build(num_nodes, partitions)
    config = {"chaos": spec, "seed": seed}
    with ShardSet(plan, build_chaos_node, config, backend) as shards:
        stats = shards.run()
        fragments = shards.fragments()
    order = sorted(fragments)
    header = {
        "preset": preset,
        "seed": seed,
        "num_nodes": num_nodes,
        "lookahead_ns": plan.lookahead_ns,
        "integrity_ok": all(fragments[n]["integrity_ok"] for n in order),
        "faults_injected": int(
            sum(len(fragments[n]["faults"]) for n in order)
        ),
        "baseline_makespan_ns": max_field(
            fragments, "baseline", "makespan_ns"
        ),
        "chaos_makespan_ns": max_field(fragments, "chaos", "makespan_ns"),
        "tasks_retried": int(sum_field(fragments, "chaos", "tasks_retried")),
        "tasks_unrecovered": int(
            sum_field(fragments, "chaos", "tasks_unrecovered")
        ),
    }
    return merged_report(
        "repro-shard-chaos/v1", header, fragments, sync=stats.to_dict()
    )
