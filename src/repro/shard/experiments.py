"""Sharded experiment harnesses: jobs, serving, chaos, machine build.

Each experiment decomposes the machine by Compute Node: every node gets
its *own* :class:`~repro.sim.Simulator` plus the full mechanism stack
(engine, workers, fabric, memory, intra-node interconnect), and nodes
are grouped into partitions driven by the conservative window protocol
(:mod:`repro.shard.sync`).  All *policy* decisions that need a global
view -- serving brownout, the chaos fault plan, partition/plan shapes --
happen on the coordinator or on node 0 through bridge traffic, never by
reaching into another node's state.

The builders here are addressed as ``"repro.shard.experiments:<name>"``
by the process backend, so everything they receive (``config``) must be
plain picklable primitives.

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
from typing import Any, Dict, List, Optional, Tuple

from repro.shard.bringup import build_node, shared_template_cache
from repro.shard.merge import max_field, merged_report, sum_field
from repro.shard.plan import PartitionPlan, ShardError
from repro.shard.sync import NodeCell, PartitionRuntime

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
def build_jobs_partition(
    partition: int, plan: PartitionPlan, config: dict
) -> PartitionRuntime:
    """One partition of the sharded multi-tenant jobs experiment.

    Every node runs the full job mix of the preset (graph seeds offset
    per node).  Before a node may submit its jobs it stages its inputs
    in from its neighbour ``(node_id + 1) % num_nodes``: a FETCH at
    t=0, a DATA reply on delivery, submission when the DATA lands --
    deterministic cross-partition traffic on every run.
    """
    from repro.core.runtime import JobManager
    from repro.experiments import build_engine, job_mix_graphs, submit_job_mix
    from repro.presets import compiled_suite, job_preset

    mix = job_preset(config["preset"])
    compiled = compiled_suite(max_variants=1)
    restore = config.get("restore") or {}
    runtime = PartitionRuntime(partition, plan)
    for node_id in plan.nodes_in(partition):
        engine = build_engine(
            mix.node, node_id=node_id, warm_start=True, compiled=compiled
        )
        sim = engine.node.sim
        manager = JobManager(engine)
        seed = config["seed"] + node_id * _GRAPH_SEED_STRIDE
        with _task_id_base(node_id * _TASK_ID_STRIDE):
            graphs = job_mix_graphs(mix, len(engine.node), seed)

        cell = NodeCell(node_id, sim)
        state = {"staged_at": None}
        node_restore = restore.get(str(node_id))
        completed = [
            job["completed"] for job in (node_restore or {}).get("jobs") or []
        ]

        if node_restore is not None and node_restore.get("staged"):
            # restored past the stage-in barrier: no fetch round, the
            # jobs resume at t=0 with their completed sets
            state["staged_at"] = 0.0
            submit_job_mix(manager, mix, completed=completed, graphs=graphs)
        else:
            peer = (node_id + 1) % plan.num_nodes
            gate = cell.gate(0.0)

            def request_stage(
                cell=cell, gate=gate, peer=peer, node_id=node_id
            ) -> None:
                cell.bridge.send(
                    peer, "job-fetch", {"src": node_id}, plan.lookahead_ns
                )
                gate.next_send_ns = None

            sim.schedule_at(0.0, request_stage)

            def on_fetch(msg, cell=cell, node_id=node_id) -> None:
                cell.bridge.send(
                    msg.payload["src"],
                    "job-data",
                    {"src": node_id},
                    plan.lookahead_ns,
                )

            def on_data(
                msg, sim=sim, state=state, manager=manager,
                graphs=graphs, completed=completed,
            ) -> None:
                state["staged_at"] = sim.now
                submit_job_mix(manager, mix, completed=completed, graphs=graphs)

            cell.on("job-fetch", on_fetch)
            cell.on("job-data", on_data)

        def fragment(manager=manager, state=state) -> Dict[str, Any]:
            return {
                "machine": _machine_fragment(manager),
                "stage": {"staged_at_ns": state["staged_at"]},
            }

        def capturer(manager=manager, state=state, sim=sim) -> Dict[str, Any]:
            return {
                "time_ns": sim.now,
                "staged": state["staged_at"] is not None,
                "jobs": [
                    {"completed": h.completed_indices(), "tasks": len(h.graph)}
                    for h in manager.handles
                ],
            }

        cell.fragment = fragment
        cell.capturer = capturer
        runtime.add_cell(cell)
    return runtime


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

    job_preset(preset)  # validate the name before any fork
    compiled_suite(max_variants=1)  # warm the HLS cache pre-fork
    plan = PartitionPlan.build(num_nodes, partitions, lookahead_ns)
    config: Dict[str, Any] = {"preset": preset, "seed": seed}
    if restore is not None:
        config["restore"] = restore
    with ShardSet(
        plan, "repro.shard.experiments:build_jobs_partition", config, backend
    ) as shards:
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
def _node_scenario(scenario, node_id: int, num_nodes: int):
    """Split one serving scenario across ``num_nodes`` gateway nodes.

    Request counts split evenly (remainder to the lowest node ids);
    trace tenants split their offset list round-robin.  The tenant mix,
    rates and SLOs stay identical on every node.
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
        if t.requests < num_nodes:
            raise ShardError(
                f"tenant {t.name!r} has {t.requests} requests, fewer than "
                f"{num_nodes} nodes -- nothing to shard"
            )
        share = t.requests // num_nodes + (
            1 if node_id < t.requests % num_nodes else 0
        )
        tenants.append(replace(t, requests=share))
    return replace(scenario, tenants=tuple(tenants))


def build_serving_partition(
    partition: int, plan: PartitionPlan, config: dict
) -> PartitionRuntime:
    """One partition of the sharded serving experiment.

    Each node runs a full gateway over its slice of the request stream.
    Once per epoch every node reports its instantaneous load to node 0;
    when the epoch's last report lands, node 0 aggregates in node order
    and broadcasts brownout enter/exit transitions (and the final stop)
    back over the bridge.
    """
    from repro.presets import serving_preset
    from repro.serving.brownout import BrownoutPolicy
    from repro.serving.gateway import build_serving_gateway

    scenario = serving_preset(config["preset"])
    runtime = PartitionRuntime(partition, plan)
    for node_id in plan.nodes_in(partition):
        gateway = build_serving_gateway(
            config["preset"],
            seed=config["seed"] + node_id * _SERVE_SEED_STRIDE,
            brownout=BrownoutPolicy(),
            warm_start=True,
            scenario=_node_scenario(scenario, node_id, plan.num_nodes),
            node_id=node_id,
        )
        sim = gateway.sim
        gateway.start()

        cell = NodeCell(node_id, sim)
        gate = cell.gate(SERVE_EPOCH_NS)
        state = {"stop": False, "epoch": 0}

        def epoch_tick(
            sim=sim, cell=cell, gate=gate, state=state,
            gateway=gateway, node_id=node_id,
        ) -> None:
            if state["stop"]:
                gate.next_send_ns = None
                return
            snap = gateway.load_snapshot()
            cell.bridge.send(
                0,
                "serve-load",
                {
                    "node": node_id,
                    "epoch": state["epoch"],
                    "outstanding": snap["outstanding"],
                    "queued": snap["queued"],
                    "drained": bool(snap["drained"]),
                },
                plan.lookahead_ns,
            )
            state["epoch"] += 1
            gate.next_send_ns = sim.now + SERVE_EPOCH_NS
            # reschedule through state: the bare name `epoch_tick` is
            # late-bound and would resolve to the *last* node's tick
            sim.schedule_at(gate.next_send_ns, state["tick"])

        state["tick"] = epoch_tick
        sim.schedule_at(SERVE_EPOCH_NS, epoch_tick)

        def on_brownout(msg, gateway=gateway) -> None:
            if msg.payload["active"]:
                gateway.enter_brownout("shard-coordinator")
            else:
                gateway.exit_brownout()

        def on_stop(msg, state=state) -> None:
            state["stop"] = True

        cell.on("serve-brownout", on_brownout)
        cell.on("serve-stop", on_stop)

        if node_id == 0:
            coord = {
                "active": False, "stopped": False,
                "decisions": 0, "entries": 0, "exits": 0,
                "bucket": {},
            }
            enter_at = config["brownout_enter"]
            exit_at = config["brownout_exit"]

            def broadcast(kind: str, payload: dict, cell=cell) -> None:
                for dst in range(plan.num_nodes):
                    cell.bridge.send(dst, kind, payload, plan.lookahead_ns)

            def on_load(msg, coord=coord, broadcast=broadcast) -> None:
                epoch = msg.payload["epoch"]
                bucket = coord["bucket"].setdefault(epoch, [])
                bucket.append(msg.payload)
                if len(bucket) < plan.num_nodes:
                    return
                loads = coord["bucket"].pop(epoch)
                loads.sort(key=lambda e: e["node"])  # node-order fold
                coord["decisions"] += 1
                if all(e["drained"] for e in loads):
                    if not coord["stopped"]:
                        coord["stopped"] = True
                        broadcast("serve-stop", {"epoch": epoch})
                    return
                total = sum(e["outstanding"] + e["queued"] for e in loads)
                if not coord["active"] and total > enter_at:
                    coord["active"] = True
                    coord["entries"] += 1
                    broadcast(
                        "serve-brownout", {"active": True, "epoch": epoch}
                    )
                elif coord["active"] and total < exit_at:
                    coord["active"] = False
                    coord["exits"] += 1
                    broadcast(
                        "serve-brownout", {"active": False, "epoch": epoch}
                    )

            cell.on("serve-load", on_load)
            coordinator = coord
        else:
            coordinator = None

        def fragment(
            gateway=gateway, state=state, coordinator=coordinator
        ) -> Dict[str, Any]:
            out = {
                "serving": gateway.report().to_dict(),
                "control": {"epochs_sent": state["epoch"]},
            }
            if coordinator is not None:
                out["control"]["decisions"] = coordinator["decisions"]
                out["control"]["brownout_entries"] = coordinator["entries"]
                out["control"]["brownout_exits"] = coordinator["exits"]
            return out

        cell.fragment = fragment
        runtime.add_cell(cell)
    return runtime


def run_sharded_serving(
    preset: str = "steady",
    seed: int = 0,
    num_nodes: int = 2,
    partitions: int = 1,
    backend: str = "auto",
    lookahead_ns: Optional[float] = None,
    brownout_enter: Optional[int] = None,
    brownout_exit: Optional[int] = None,
) -> Dict[str, Any]:
    """Serve one preset across ``num_nodes`` gateway nodes; merged report."""
    from repro.presets import compiled_suite, serving_preset
    from repro.shard.backends import ShardSet

    serving_preset(preset)
    compiled_suite(max_variants=2)
    plan = PartitionPlan.build(num_nodes, partitions, lookahead_ns)
    config = {
        "preset": preset,
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
    with ShardSet(
        plan, "repro.shard.experiments:build_serving_partition", config, backend
    ) as shards:
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
def build_chaos_partition(
    partition: int, plan: PartitionPlan, config: dict
) -> PartitionRuntime:
    """One partition of the sharded chaos experiment.

    Phase A (bring-up): each node runs its workload fault-free on a
    throwaway machine to pin down the baseline makespan and workload
    signature.  Phase B (the shard run): the same workload starts at
    t=0 with the self-healing runtime armed; every node announces its
    baseline to node 0, which derives the seeded global fault plan and
    sends each KILL so it is *delivered* exactly at its planned time.
    """
    from repro.chaos.controller import seeded_node_plan
    from repro.apps.taskgraph import graph_signature
    from repro.chaos.experiment import chaos_preset
    from repro.core.runtime import JobManager
    from repro.experiments import build_engine, layered_graph
    from repro.presets import compiled_suite

    preset = chaos_preset(config["preset"])
    compiled = compiled_suite(max_variants=1)
    runtime = PartitionRuntime(partition, plan)
    for node_id in plan.nodes_in(partition):
        graph_seed = (
            preset.graph_seed + config["seed"] + node_id * _GRAPH_SEED_STRIDE
        )

        # ---- phase A: fault-free baseline on a throwaway machine ------
        base_engine = build_engine(
            preset.node, node_id=node_id, warm_start=True, compiled=compiled
        )
        with _task_id_base(node_id * _TASK_ID_STRIDE):
            base_graph = layered_graph(
                preset.layers, preset.width, len(base_engine.node), graph_seed
            )
        baseline = base_engine.run_graph(base_graph)

        # ---- phase B: armed runtime, workload from t=0 ----------------
        engine = build_engine(
            preset.node,
            node_id=node_id,
            warm_start=True,
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
        state: Dict[str, Any] = {"injected": []}

        def announce(
            cell=cell, gate=gate, node_id=node_id,
            baseline=baseline, node=node,
        ) -> None:
            cell.bridge.send(
                0,
                "chaos-ready",
                {
                    "node": node_id,
                    "makespan_ns": baseline.makespan_ns,
                    "workers": len(node),
                },
                plan.lookahead_ns,
            )
            gate.next_send_ns = None

        sim.schedule_at(0.0, announce)

        def on_kill(msg, sim=sim, engine=engine, state=state) -> None:
            p = msg.payload
            transient = p["downtime_ns"] is not None
            engine.crash_worker(p["worker"], permanent=not transient)
            state["injected"].append(
                {
                    "worker": p["worker"],
                    "at_ns": sim.now,
                    "downtime_ns": p["downtime_ns"],
                    "kind": "transient" if transient else "crash-stop",
                }
            )
            if transient:
                sim.schedule_at(
                    sim.now + p["downtime_ns"],
                    engine.recover_worker,
                    p["worker"],
                )

        cell.on("chaos-kill", on_kill)

        if node_id == 0:
            ready: Dict[int, dict] = {}

            def on_ready(
                msg, ready=ready, cell=cell, sim=sim, preset=preset,
                seed=config["seed"],
            ) -> None:
                ready[msg.payload["node"]] = msg.payload
                if len(ready) < plan.num_nodes:
                    return
                now = sim.now
                for nid in sorted(ready):
                    info = ready[nid]
                    faults = seeded_node_plan(
                        seed,
                        nid,
                        info["workers"],
                        info["makespan_ns"],
                        window_fraction=preset.window_fraction,
                        crashes=preset.worker_crashes,
                        transient_fraction=preset.transient_fraction,
                        downtime_ns=preset.worker_downtime_ns,
                    )
                    for f in faults:
                        at = max(f["at_ns"], now + plan.lookahead_ns)
                        cell.bridge.send(
                            nid,
                            "chaos-kill",
                            {
                                "worker": f["worker"],
                                "at_ns": at,
                                "downtime_ns": f["downtime_ns"],
                            },
                            at - now,
                        )

            cell.on("chaos-ready", on_ready)

        def fragment(
            manager=manager, baseline=baseline, state=state,
            base_graph=base_graph, graph=graph,
        ) -> Dict[str, Any]:
            chaos = _machine_fragment(manager)
            match = graph_signature(base_graph) == graph_signature(graph)
            return {
                "baseline": {
                    "makespan_ns": baseline.makespan_ns,
                    "tasks": baseline.tasks,
                },
                "chaos": chaos,
                "faults": state["injected"],
                "workload_match": match,
                "integrity_ok": (
                    match
                    and chaos["tasks"] == baseline.tasks
                    and chaos["tasks_unrecovered"] == 0
                ),
            }

        cell.fragment = fragment
        runtime.add_cell(cell)
    return runtime


def run_sharded_chaos(
    preset: str = "mini",
    seed: int = 0,
    num_nodes: int = 2,
    partitions: int = 1,
    backend: str = "auto",
    lookahead_ns: Optional[float] = None,
) -> Dict[str, Any]:
    """Chaos-test every node of a sharded machine; merged verdict report."""
    from repro.chaos.experiment import chaos_preset
    from repro.presets import compiled_suite
    from repro.shard.backends import ShardSet

    chaos_preset(preset)  # validate the name before any fork
    compiled_suite(max_variants=1)
    plan = PartitionPlan.build(num_nodes, partitions, lookahead_ns)
    config = {"preset": preset, "seed": seed}
    with ShardSet(
        plan, "repro.shard.experiments:build_chaos_partition", config, backend
    ) as shards:
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


# ======================================================================
# machine build: the bench's sharded exascale construction sweep
# ======================================================================
def build_build_partition(
    partition: int, plan: PartitionPlan, config: dict
) -> PartitionRuntime:
    """One partition of the sharded machine build: node bring-up only."""
    from repro.core import ComputeNodeParams
    from repro.sim import Simulator

    params = ComputeNodeParams(
        num_workers=config["workers_per_node"],
        intra_fanout=config["intra_fanout"],
    )
    runtime = PartitionRuntime(partition, plan)
    cache = shared_template_cache()
    for node_id in plan.nodes_in(partition):
        sim = Simulator()
        node = build_node(sim, params, node_id, cache)
        template = cache.get(params)
        cell = NodeCell(node_id, sim)

        def fragment(node=node, template=template) -> Dict[str, Any]:
            return {
                "workers": len(node),
                "intra_diameter": template.intra_diameter,
            }

        cell.fragment = fragment
        runtime.add_cell(cell)
    return runtime


def run_sharded_build(
    num_nodes: int,
    workers_per_node: int = 4,
    intra_fanout: Optional[int] = None,
    inter_node_fanouts: Optional[List[int]] = None,
    partitions: int = 1,
    backend: str = "auto",
    payload_bytes: int = 4096,
) -> Dict[str, Any]:
    """Build a sharded machine and measure its hierarchy metrics.

    The per-node mechanism stacks are built inside the partitions; the
    coordinator only builds the small inter-node tree and the world
    communicator for the allreduce -- exactly the structures
    :class:`~repro.core.machine.Machine` builds, so ``total_workers``,
    ``max_hop_distance`` and the allreduce numbers match the monolithic
    build at any partition count.
    """
    from repro.interconnect.topology import build_tree, level_params
    from repro.mpi.comm import Communicator
    from repro.shard.backends import ShardSet
    from repro.sim import Simulator

    plan = PartitionPlan.build(num_nodes, min(partitions, num_nodes))
    config = {
        "workers_per_node": workers_per_node,
        "intra_fanout": intra_fanout,
    }
    with ShardSet(
        plan, "repro.shard.experiments:build_build_partition", config, backend
    ) as shards:
        fragments = shards.fragments()

    fanouts = list(inter_node_fanouts or [num_nodes])
    depth = len(fanouts)
    # mirror Machine: inter-node levels sit one level above the intra tree
    params_per_level = [level_params(depth - 1 - d + 1) for d in range(depth)]
    sim = Simulator()
    inter_network, endpoints = build_tree(sim, fanouts, params_per_level)
    world = Communicator(inter_network, endpoints, name="world")
    result = world.allreduce(payload_bytes)

    intra = int(max_field(fragments, "intra_diameter"))
    if num_nodes == 1:
        max_hop = intra
    else:
        max_hop = intra + inter_network.diameter_hops(endpoints)
    return {
        "num_nodes": num_nodes,
        "total_workers": int(sum_field(fragments, "workers")),
        "max_hop_distance": max_hop,
        "allreduce": {
            "latency_ns": result.latency_ns,
            "rounds": result.rounds,
            "bytes_moved": result.bytes_moved,
        },
    }
