"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``info``        package inventory and version,
- ``machine``     build a machine and report its hierarchy metrics,
- ``power``       the Section 1 exascale power extrapolation,
- ``demo``        a short adaptive-runtime run with a timeline,
- ``trace``       run a preset with telemetry, export a Perfetto trace,
- ``metrics``     run a preset with telemetry, dump the metrics snapshot,
- ``experiment``  run one DESIGN.md experiment's bench and print its tables,
- ``chaos``       inject faults into a run and verify the runtime self-heals,
- ``checkpoint``  snapshot/restore survival: save, restore, ls, correlated
                  kill-and-restore experiment, MTBF x interval Daly sweep,
- ``jobs``        run a multi-tenant job mix and report per-job outcomes,
- ``serve``       open-loop request serving with admission control, dynamic
                  batching and SLO-driven elastic reconfiguration,
- ``inspect``     traced serving run -> critical-path breakdown, top-K
                  slowest requests and the SLO burn-rate alert timeline,
- ``bench``       wall-clock micro-benchmarks no e2e workload reaches ->
                  canonical BENCH_perf.json,
- ``daemon``      always-on service mode: one live machine behind a
                  line-delimited-JSON control plane (unix socket / HTTP),
- ``client``      speak the daemon protocol from the command line.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_info(args: argparse.Namespace) -> int:
    import repro

    print(f"repro {repro.__version__} -- ECOSCALE (DATE 2016) reproduction")
    print(__doc__.split("Commands:")[0].strip())
    packages = [
        ("repro.sim", "discrete-event simulation kernel"),
        ("repro.memory", "UNIMEM memory system (pages, caches, SMMU)"),
        ("repro.interconnect", "multi-layer interconnect + topologies + DMA"),
        ("repro.fabric", "reconfigurable fabric, bitstreams, floorplanning"),
        ("repro.hls", "HLS: kernel IR, estimation, design-space exploration"),
        ("repro.opencl", "OpenCL-style API with ECOSCALE extensions"),
        ("repro.mpi", "communicators, collectives, topologies, placement"),
        ("repro.pgas", "NUMA-aware allocation and page migration"),
        ("repro.apps", "HPC workloads (stencil, matmul, MC, CART, DAGs)"),
        ("repro.energy", "energy accounting + exascale extrapolation"),
        ("repro.core", "Workers, Compute Nodes, UNILOGIC, runtime, middleware"),
        ("repro.chaos", "machine-wide fault injection and chaos experiments"),
        ("repro.telemetry", "metrics registry, tracer, structured events"),
        ("repro.serving", "traffic generation, admission, batching, autoscaling"),
    ]
    print("\npackages:")
    for name, desc in packages:
        print(f"  {name:20s} {desc}")
    return 0


def _cmd_machine(args: argparse.Namespace) -> int:
    from repro.core import ComputeNodeParams, Machine, MachineParams
    from repro.sim import Simulator

    try:
        params = MachineParams(
            num_nodes=args.nodes,
            node=ComputeNodeParams(
                num_workers=args.workers,
                intra_fanout=args.intra_fanout,
            ),
        )
    except ValueError as exc:
        print(f"repro machine: error: {exc}", file=sys.stderr)
        return 2
    machine = Machine(Simulator(), params)
    print(f"machine: {args.nodes} compute nodes x {args.workers} workers "
          f"= {machine.total_workers} workers")
    print(f"max worker-to-worker hop distance: {machine.max_hop_distance()}")
    for size in (64, 4096, 262144):
        r = machine.world.allreduce(size)
        print(f"allreduce {size:>7d} B: {r.latency_ns / 1000:9.1f} us, "
              f"{r.rounds} rounds, {r.bytes_moved} bytes moved")
    return 0


def _cmd_power(args: argparse.Namespace) -> int:
    from repro.energy import (
        GREEN500_2015_LEADER,
        TIANHE2,
        efficiency_required_for,
        extrapolate_power_mw,
    )

    print("exaflop power extrapolation (paper Section 1):")
    for ref in (TIANHE2, GREEN500_2015_LEADER):
        mw = extrapolate_power_mw(ref, target_flops=args.exaflops * 1e18)
        print(f"  from {ref.name:10s} ({ref.gflops_per_watt:5.2f} GFLOPS/W): "
              f"{mw:8.0f} MW")
    need = efficiency_required_for(args.exaflops * 1e18, args.budget_mw)
    print(f"  required for a {args.budget_mw:.0f} MW facility: "
          f"{need:.0f} GFLOPS/W")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core import ComputeNode
    from repro.core.runtime import ExecutionEngine
    from repro.experiments import DAEMON_PERIOD_NS, layered_graph
    from repro.presets import board_node, compiled_suite
    from repro.sim import Simulator, render_timeline
    from repro.telemetry import Telemetry

    print("compiling the kernel suite through the HLS flow...")
    registry, library = compiled_suite(max_variants=1)
    sim = Simulator()
    node = ComputeNode(sim, board_node(workers=args.workers))
    hub = Telemetry(sim)
    engine = ExecutionEngine(
        node, registry, library, use_daemon=True,
        daemon_period_ns=DAEMON_PERIOD_NS, telemetry=hub,
    )
    graph = layered_graph(args.layers, args.width, args.workers, args.seed)
    print(f"running {len(graph)} tasks on {args.workers} workers...")
    report = engine.run_graph(graph)
    print(f"  makespan : {report.makespan_ns / 1e6:.3f} ms")
    print(f"  devices  : {report.sw_calls} sw / {report.hw_calls} hw "
          f"({report.hw_fraction:.0%} hardware)")
    print(f"  reconfigs: {report.reconfigurations}")
    print(f"  energy   : {report.energy_pj / 1e9:.3f} mJ")
    if engine.daemon is not None:
        print(f"  daemon loaded: {engine.daemon.stats.functions_loaded}")
    print("\nper-worker timeline:")
    print(render_timeline(hub.tracer, width=64))
    return 0


def _telemetry_run(args: argparse.Namespace):
    """Shared by ``trace``/``metrics``: one instrumented runtime run.

    Builds a Compute Node from the named preset, attaches a telemetry
    hub to every layer (kernel, NoC, memories, fabrics, runtime), and
    drives a layered DAG through the adaptive runtime with the
    reconfiguration daemon on -- so the trace/snapshot covers the
    interconnect, memory, fabric and runtime layers in one run.
    """
    from repro.experiments import build_engine, layered_graph
    from repro.telemetry import Telemetry, attach_simulator

    def instrumented(sim):
        hub = Telemetry(sim)
        attach_simulator(hub, sim)
        return hub

    print(f"compiling the kernel suite, building preset {args.preset!r}...",
          file=sys.stderr)
    engine = build_engine(args.preset, telemetry=instrumented)
    workers = len(engine.node)
    graph = layered_graph(args.layers, args.width, workers, args.seed)
    print(f"running {len(graph)} tasks on {workers} workers...",
          file=sys.stderr)
    report = engine.run_graph(graph)
    return engine.telemetry, report


def _write_or_print(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"wrote {out}", file=sys.stderr)
    else:
        print(text)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry import chrome_trace_json, events_json, snapshot_json

    hub, report = _telemetry_run(args)
    _write_or_print(chrome_trace_json(hub), args.out)
    if args.metrics_out:
        _write_or_print(snapshot_json(hub), args.metrics_out)
    if args.events_out:
        _write_or_print(events_json(hub, indent=2), args.events_out)
    spans = len(hub.tracer.closed_spans())
    print(f"  makespan : {report.makespan_ns / 1e6:.3f} ms", file=sys.stderr)
    print(f"  spans    : {spans} across {len(hub.tracer.lanes())} lanes",
          file=sys.stderr)
    print(f"  events   : {len(hub.events)} ({hub.events.dropped} dropped)",
          file=sys.stderr)
    print("load the trace in https://ui.perfetto.dev or chrome://tracing",
          file=sys.stderr)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.telemetry import prometheus_text, snapshot_csv, snapshot_json

    hub, report = _telemetry_run(args)
    text = {
        "json": snapshot_json,
        "csv": snapshot_csv,
        "prom": prometheus_text,
    }[args.format](hub)
    _write_or_print(text, args.out)
    print(f"  makespan : {report.makespan_ns / 1e6:.3f} ms", file=sys.stderr)
    print(f"  metrics  : {len(hub.registry.snapshot())} series",
          file=sys.stderr)
    return 0


_EXPERIMENT_FILES = {
    "FIG1": "bench_fig1_partitioning.py",
    "FIG2": "bench_fig2_framework.py",
    "FIG3": "bench_fig3_architecture.py",
    "FIG4": "bench_fig4_worker.py",
    "FIG5": "bench_fig5_runtime.py",
    "CLAIM-GW": "bench_claim_exascale.py",
    "CLAIM-SHARE": "bench_claim_sharing.py",
    "CLAIM-COMPRESS": "bench_claim_compression.py",
    "CLAIM-CHAIN": "bench_claim_chaining.py",
    "CLAIM-LAZY": "bench_claim_lazy.py",
    "CLAIM-MODEL": "bench_claim_models.py",
    "CLAIM-HLS": "bench_claim_hls.py",
    "CLAIM-PGAS": "bench_claim_hybrid.py",
    "CLAIM-SORT": "bench_claim_sorting.py",
    "CLAIM-RESIL": "bench_claim_resilience.py",
    "CLAIM-IRREGULAR": "bench_claim_irregular.py",
    "ABL": "bench_ablations.py",
}


def _cmd_experiment(args: argparse.Namespace) -> int:
    import subprocess
    from pathlib import Path

    key = args.id.upper()
    if key not in _EXPERIMENT_FILES:
        print(f"unknown experiment {args.id!r}; choose from:")
        for name in _EXPERIMENT_FILES:
            print(f"  {name}")
        return 2
    bench_dir = Path(__file__).resolve().parents[2] / "benchmarks"
    bench = bench_dir / _EXPERIMENT_FILES[key]
    if not bench.exists():
        print(f"bench file {bench} not found (run from a source checkout)")
        return 2
    cmd = [sys.executable, "-m", "pytest", str(bench), "-s", "-q",
           "--benchmark-disable"]
    return subprocess.call(cmd)


def _shard_shape(args: argparse.Namespace) -> tuple:
    """(num_nodes, partitions) for a CLI-requested sharded run."""
    partitions = args.partitions if args.partitions is not None else 1
    nodes = args.nodes if args.nodes is not None else max(2, partitions)
    return nodes, partitions


def _shard_requested(args: argparse.Namespace) -> bool:
    return args.partitions is not None or args.nodes is not None


def _print_sync(report: dict) -> None:
    sync = report["sync"]
    print(f"  shard sync       : {sync['windows']} windows, "
          f"{sync['messages']} bridge messages, {sync['events']} events")


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import run_chaos_experiment

    if _shard_requested(args):
        from repro.shard import report_json, run_sharded_chaos

        nodes, partitions = _shard_shape(args)
        print(f"compiling the kernel suite, running sharded chaos preset "
              f"{args.preset!r} ({nodes} nodes, {partitions} partitions, "
              f"seed {args.seed})...", file=sys.stderr)
        report = run_sharded_chaos(
            args.preset, seed=args.seed, num_nodes=nodes,
            partitions=partitions, backend=args.backend,
        )
        if args.events_out:
            _write_or_print(report_json(report, indent=2), args.events_out)
        print(f"  baseline makespan : "
              f"{report['baseline_makespan_ns'] / 1e6:.3f} ms (worst node)")
        print(f"  chaos makespan    : "
              f"{report['chaos_makespan_ns'] / 1e6:.3f} ms (worst node)")
        print(f"  faults injected   : {report['faults_injected']} "
              f"across {nodes} nodes")
        print(f"  tasks retried     : {report['tasks_retried']}")
        print(f"  unrecovered tasks : {report['tasks_unrecovered']}")
        _print_sync(report)
        if report["integrity_ok"]:
            print("  integrity         : OK -- every node healed its faults")
            return 0
        print("  integrity         : FAILED -- tasks lost or workload mismatch")
        return 1

    print(f"compiling the kernel suite, running chaos preset {args.preset!r} "
          f"(seed {args.seed})...", file=sys.stderr)
    report = run_chaos_experiment(args.preset, seed=args.seed)
    if args.events_out:
        _write_or_print(report.events_json(indent=2), args.events_out)
    chaos, base = report.chaos, report.baseline
    print(f"  baseline makespan : {base.makespan_ns / 1e6:.3f} ms "
          f"({base.tasks} tasks, no faults)")
    print(f"  chaos makespan    : {chaos.makespan_ns / 1e6:.3f} ms "
          f"({report.slowdown:.2f}x slowdown)")
    print(f"  faults injected   : {report.faults_injected} "
          f"(of {report.faults_planned} planned)")
    print(f"  worker failures   : {chaos.worker_failures} "
          f"(mean detection {chaos.mean_detection_ns / 1e3:.1f} us, "
          f"mean recovery {chaos.mean_recovery_ns / 1e3:.1f} us)")
    print(f"  tasks retried     : {chaos.tasks_retried} "
          f"({chaos.work_lost_ns / 1e3:.1f} us of work lost)")
    print(f"  fabric recoveries : {chaos.fabric_recoveries} "
          f"({chaos.fabric_recovery_failures} failed)")
    print(f"  unrecovered tasks : {chaos.tasks_unrecovered}")
    if report.integrity_ok:
        print("  integrity         : OK -- all tasks completed despite faults")
        return 0
    print("  integrity         : FAILED -- tasks lost or workload mismatch")
    return 1


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    from repro.chaos.checkpoint_experiment import (
        build_workload,
        restore_from_snapshot,
        run_checkpoint_interval_sweep,
        run_checkpoint_restore_experiment,
        workload_spec,
    )
    from repro.core.runtime import FaultTolerancePolicy
    from repro.core.runtime.checkpoint import (
        CheckpointManager,
        CheckpointPolicy,
        SnapshotStore,
    )

    # save/restore/ls always use a directory; the experiment persists
    # snapshots only when --dir is given
    directory = args.dir if args.dir is not None else "checkpoints"

    if args.action == "ls":
        store = SnapshotStore(directory)
        paths = store.list()
        if not paths:
            print(f"no snapshots under {directory}")
            return 0
        print("  seq   taken-at        jobs  done  file")
        for path in paths:
            s = store.load(path)
            print(f"  {s.seq:>3d}  {s.taken_at_ns / 1e6:>9.3f} ms  "
                  f"{len(s.jobs):>4d}  {s.tasks_completed:>4d}  {path.name}")
        return 0

    if args.action == "save":
        print(f"compiling the kernel suite, checkpointing preset "
              f"{args.preset!r} every {args.interval / 1e3:.0f} us...",
              file=sys.stderr)
        workload = workload_spec(args.preset, seed=args.seed)
        manager, _ = build_workload(
            workload, fault_tolerance=FaultTolerancePolicy()
        )
        ckpt = CheckpointManager(
            manager,
            CheckpointPolicy(interval_ns=args.interval),
            store=SnapshotStore(directory),
            workload=workload,
        )
        ckpt.start()
        if args.until is not None:
            manager.sim.run(until=args.until)
        else:
            manager.run()
        ckpt.stop()
        print(f"  snapshots : {len(ckpt.snapshots)} written to {directory}")
        for s in ckpt.snapshots:
            print(f"    seq {s.seq} at {s.taken_at_ns / 1e6:.3f} ms "
                  f"({s.tasks_completed} tasks done)")
        return 0

    if args.action == "restore":
        store = SnapshotStore(directory)
        snapshot = (
            store.load(args.snapshot) if args.snapshot else store.load_latest()
        )
        if snapshot is None:
            print(f"no snapshots under {directory}")
            return 1
        print(f"restoring seq {snapshot.seq} "
              f"(taken at {snapshot.taken_at_ns / 1e6:.3f} ms, "
              f"{snapshot.tasks_completed} tasks already done)...",
              file=sys.stderr)
        manager, handles = restore_from_snapshot(
            snapshot, fault_tolerance=FaultTolerancePolicy()
        )
        report = manager.run()
        if args.out:
            _write_or_print(report.json(indent=2), args.out)
        print(f"  resumed at       : {snapshot.taken_at_ns / 1e6:.3f} ms")
        print(f"  finished at      : "
              f"{manager.sim.now / 1e6:.3f} ms simulated")
        for handle in handles:
            outcome = report.job(handle.job_id)
            print(f"  job {handle.job_id}: {handle.tasks_skipped} skipped, "
                  f"{outcome.report.tasks - handle.tasks_skipped} replayed, "
                  f"{outcome.report.tasks_unrecovered} unrecovered")
        if report.tasks_unrecovered:
            print(f"  WARNING: {report.tasks_unrecovered} unrecovered tasks")
            return 1
        return 0

    if args.action == "experiment":
        print(f"compiling the kernel suite, kill-and-restore on preset "
              f"{args.preset!r} (domain {args.domain}, seed {args.seed})...",
              file=sys.stderr)
        report = run_checkpoint_restore_experiment(
            args.preset,
            seed=args.seed,
            domain=args.domain,
            store_dir=args.dir,
        )
        if args.events_out:
            _write_or_print(report.events_json(indent=2), args.events_out)
        d = report.to_dict()
        print(f"  baseline makespan : {report.baseline_makespan_ns / 1e6:.3f} ms "
              f"({report.baseline_tasks} tasks)")
        print(f"  domain killed     : {report.domain} "
              f"(workers {report.domain_workers}) at "
              f"{report.kill_ns / 1e6:.3f} ms, run abandoned at "
              f"{report.abandoned_ns / 1e6:.3f} ms")
        print(f"  recovery point    : seq {report.snapshot_seq} at "
              f"{report.snapshot_at_ns / 1e6:.3f} ms "
              f"({report.tasks_checkpointed} tasks checkpointed, "
              f"{report.lost_window_ns / 1e6:.3f} ms of progress lost)")
        print(f"  restored          : {d['restore']['tasks_replayed']} tasks "
              f"replayed, finished at {report.restored_makespan_ns / 1e6:.3f} ms")
        if report.integrity_ok:
            print("  integrity         : OK -- every task checkpointed or replayed")
            return 0
        print("  integrity         : FAILED -- work lost across the restore")
        return 1

    # action == "sweep"
    print(f"sweeping MTBF x checkpoint interval (seed {args.seed}, "
          f"{args.trials} trials per cell)...", file=sys.stderr)
    report = run_checkpoint_interval_sweep(seed=args.seed, trials=args.trials)
    if args.out:
        _write_or_print(report.events_json(indent=2), args.out)
    print(f"  checkpoint cost : {report.checkpoint_cost_ns / 1e3:.1f} us "
          f"(measured from a real run)" if report.measured_cost_ns
          else f"  checkpoint cost : {report.checkpoint_cost_ns / 1e3:.1f} us")
    print("  MTBF        daly-interval   best-factor   goodput(daly)  verdict")
    for o in report.optima:
        print(f"  {o['mtbf_ns'] / 1e6:>6.1f} ms  {o['daly_interval_ns'] / 1e3:>10.1f} us "
              f"{o['best_factor']:>11.2f}x  {o['daly_goodput']:>12.4f}  "
              f"{'OK' if o['within_one_step'] else 'OFF-OPTIMUM'}")
    if report.daly_validated:
        print("  Daly optimum validated: goodput peaks within one sweep step")
        return 0
    print("  Daly optimum NOT validated")
    return 1


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.experiments import run_jobs_experiment
    from repro.presets import job_preset

    if _shard_requested(args):
        from repro.shard import report_json, run_sharded_jobs

        nodes, partitions = _shard_shape(args)
        print(f"compiling the kernel suite, running sharded job mix "
              f"{args.preset!r} ({nodes} nodes, {partitions} partitions, "
              f"backend {args.backend})...", file=sys.stderr)
        report = run_sharded_jobs(
            args.preset, seed=args.seed, num_nodes=nodes,
            partitions=partitions, backend=args.backend,
        )
        if args.out:
            _write_or_print(report_json(report, indent=2), args.out)
        print(f"  machine makespan : {report['makespan_ns'] / 1e6:.3f} ms "
              f"({report['tasks']} tasks across {nodes} nodes)")
        print(f"  energy           : {report['energy_pj'] / 1e9:.3f} mJ")
        _print_sync(report)
        if report["tasks_unrecovered"]:
            print(f"  WARNING: {report['tasks_unrecovered']} unrecovered tasks")
            return 1
        return 0

    mix = job_preset(args.preset)
    print(f"compiling the kernel suite, running job mix {args.preset!r} "
          f"({len(mix.jobs)} jobs on node preset {mix.node!r})...",
          file=sys.stderr)
    report = run_jobs_experiment(args.preset, seed=args.seed)
    if args.out:
        _write_or_print(report.json(indent=2), args.out)
    print(f"  machine makespan : {report.makespan_ns / 1e6:.3f} ms "
          f"({report.tasks} tasks across {len(report.jobs)} jobs)")
    print(f"  throughput       : "
          f"{report.aggregate_throughput_tasks_per_ms:.1f} tasks/ms aggregate")
    print(f"  fairness (Jain)  : {report.fairness_index():.3f}")
    print(f"  energy           : {report.energy_pj / 1e9:.3f} mJ, "
          f"{report.reconfigurations} reconfigurations")
    print("  job  policy     prio  tasks  sw/hw      latency      tasks/ms")
    for job in report.jobs:
        r = job.report
        print(f"  {job.job_id:>3d}  {job.policy:<10s} {job.priority:>4d} "
              f"{r.tasks:>6d}  {r.sw_calls:>3d}/{r.hw_calls:<3d} "
              f"{job.latency_ns / 1e6:>9.3f} ms "
              f"{job.throughput_tasks_per_ms:>11.1f}")
    if report.tasks_unrecovered:
        print(f"  WARNING: {report.tasks_unrecovered} unrecovered tasks")
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving import run_serving_experiment

    if _shard_requested(args):
        from repro.shard import report_json, run_sharded_serving

        nodes, partitions = _shard_shape(args)
        print(f"compiling the kernel suite, serving sharded preset "
              f"{args.preset!r} ({nodes} nodes, {partitions} partitions, "
              f"seed {args.seed})...", file=sys.stderr)
        report = run_sharded_serving(
            args.preset, seed=args.seed, num_nodes=nodes,
            partitions=partitions, backend=args.backend,
        )
        if args.out:
            _write_or_print(report_json(report, indent=2), args.out)
        print(f"  horizon          : {report['horizon_ns'] / 1e6:.3f} ms "
              f"simulated (worst node)")
        print(f"  requests         : {report['offered']} offered, "
              f"{report['admitted']} admitted, {report['shed']} shed, "
              f"{report['completed']} completed across {nodes} nodes")
        print(f"  batching         : {report['batches']} batches")
        _print_sync(report)
        if report["unrecovered"]:
            print(f"  WARNING: {report['unrecovered']} admitted requests "
                  f"never completed")
            return 1
        return 0

    print(
        f"compiling the kernel suite, serving preset {args.preset!r} "
        f"(seed {args.seed})...",
        file=sys.stderr,
    )
    report = run_serving_experiment(args.preset, seed=args.seed)
    _write_or_print(report.json(indent=2), args.out)
    print(f"  horizon          : {report.horizon_ns / 1e6:.3f} ms simulated")
    print(f"  requests         : {report.offered} offered, "
          f"{report.admitted} admitted, {report.shed} shed "
          f"({report.shed_rate:.1%}), {report.completed} completed")
    print(f"  batching         : {report.batches} batches, "
          f"mean size {report.mean_batch_size:.2f} "
          f"({report.flushes_full} full / {report.flushes_timeout} timeout)")
    a = report.autoscaler
    print(f"  autoscaler       : {a['regions_configured']} regions configured "
          f"({a['loads']} loads, {a['replicas']} replicas, "
          f"{a['evictions']} evictions) over {a['evaluations']} periods")
    print("  tenant        p50          p95          p99        goodput   shed")
    for name, t in sorted(report.tenants.items()):
        lat = t["latency_ns"]
        print(f"  {name:<12s} {lat['p50'] / 1e3:>8.1f} us  "
              f"{lat['p95'] / 1e3:>8.1f} us  {lat['p99'] / 1e3:>8.1f} us  "
              f"{t['goodput_rps']:>9.0f} rps  {t['shed_rate']:.1%}")
    if report.unrecovered:
        print(f"  WARNING: {report.unrecovered} admitted requests never completed")
        return 1
    return 0


def _cmd_daemon(args: argparse.Namespace) -> int:
    from repro.service.daemon import run_daemon

    socket_path = args.socket
    if socket_path is None and args.http is None:
        socket_path = "repro.sock"
    return run_daemon(
        socket_path=socket_path,
        http_port=args.http,
        http_host=args.host,
        preset=args.preset,
        seed=args.seed,
        window_ns=args.window_ns,
        telemetry=not args.no_telemetry,
        snapshot_dir=args.snapshot_dir,
        restore=args.restore,
    )


def _cmd_client(args: argparse.Namespace) -> int:
    import json

    from repro.service.client import ServiceClient, ServiceClientError

    frame = {"cmd": args.command}
    if args.command == "script" and args.args and not args.args.lstrip().startswith("{"):
        frame["path"] = args.args  # bare path shorthand
    elif args.args:
        try:
            extra = json.loads(args.args)
        except json.JSONDecodeError as exc:
            print(f"repro client: args must be a JSON object: {exc}",
                  file=sys.stderr)
            return 2
        if not isinstance(extra, dict):
            print("repro client: args must be a JSON object", file=sys.stderr)
            return 2
        frame.update(extra)
    client = ServiceClient(
        socket_path=args.socket if args.http is None else None,
        host=args.host,
        port=args.http,
        timeout=args.timeout,
    )
    try:
        with client:
            if args.command == "script":
                return _client_script(client, frame, args)
            reply = client.request(frame)
    except ServiceClientError as exc:
        print(f"repro client: {exc}", file=sys.stderr)
        return 1
    return _client_emit(reply, args)


def _client_emit(reply: dict, args: argparse.Namespace) -> int:
    import json

    # reports and metrics carry one big text payload; write it raw so the
    # output diffs byte-for-byte against batch-mode files
    if reply.get("ok") and args.out and "report" in reply:
        _write_or_print(reply["report"], args.out)
        rest = {k: v for k, v in reply.items() if k != "report"}
        print(json.dumps(rest, sort_keys=True))
    elif reply.get("ok") and args.out and "text" in reply:
        _write_or_print(reply["text"], args.out)
        rest = {k: v for k, v in reply.items() if k != "text"}
        print(json.dumps(rest, sort_keys=True))
    else:
        print(json.dumps(reply, sort_keys=True))
    return 0 if reply.get("ok") else 1


def _client_script(client, frame: dict, args: argparse.Namespace) -> int:
    """Run a .jsonl command script (one frame per line) through the daemon."""
    import json

    path = frame.get("path") or args.args
    if not path or not isinstance(path, str):
        print('repro client: script needs {"path": "commands.jsonl"}',
              file=sys.stderr)
        return 2
    frames = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                frames.append(json.loads(line))
    replies = client.script(frames)
    failed = 0
    for reply in replies:
        print(json.dumps(reply, sort_keys=True))
        if not reply.get("ok"):
            failed += 1
    return 1 if failed else 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.serving import BurnRatePolicy, TraceConfig, build_serving_gateway
    from repro.telemetry import Telemetry, validate_span_tree

    print(
        f"compiling the kernel suite, tracing preset {args.preset!r} "
        f"(seed {args.seed}, 1-in-{args.sample_every} sampling)...",
        file=sys.stderr,
    )
    gateway = build_serving_gateway(
        args.preset,
        seed=args.seed,
        # a hub only when an export asks for one: the traced run itself
        # works dark (spans land on the request tracer's standalone sink)
        telemetry=Telemetry if (args.trace_out or args.events_out) else None,
        tracing=TraceConfig(
            sample_every=args.sample_every, top_k=args.top_k
        ),
        alerts=BurnRatePolicy(slo_scale=args.slo_scale),
    )
    hub = gateway.telemetry
    report = gateway.run()
    if args.out:
        _write_or_print(report.json(indent=2), args.out)
    if args.trace_out or args.events_out:
        from repro.telemetry import chrome_trace_json, events_json

        if args.trace_out:
            _write_or_print(chrome_trace_json(hub), args.trace_out)
        if args.events_out:
            _write_or_print(events_json(hub, indent=2), args.events_out)

    tr, al = report.tracing, report.alerts
    sink = gateway.request_tracer.tracer
    traces = validate_span_tree(sink.spans)
    print(f"  requests : {report.offered} offered, {report.completed} "
          f"completed over {report.horizon_ns / 1e6:.3f} ms simulated")
    print(f"  traces   : {tr['sampled_traces']} sampled "
          f"({tr['violation_upgrades']} SLO upgrades), {tr['spans']} spans, "
          f"{traces} span trees validated")
    print(f"  analyzed : {tr['requests_analyzed']} requests "
          f"(breakdown is exact; sampling gates span emission only)")

    print("\n  critical path (per tenant, per stage):")
    print("  tenant        stage            count     mean        max    share")
    for tenant, block in sorted(tr["breakdown"].items()):
        for stage, cell in block["stages"].items():
            print(f"  {tenant:<12s}  {stage:<12s} {cell['count']:>9d} "
                  f"{cell['mean_ns'] / 1e3:>7.1f} us "
                  f"{cell['max_ns'] / 1e3:>7.1f} us  {cell['share']:>6.1%}")

    print(f"\n  top-{len(tr['top_slowest'])} slowest requests:")
    print("  request  tenant        function       latency  dominant stage")
    for row in tr["top_slowest"]:
        print(f"  #{row['request_id']:<6d} {row['tenant']:<12s}  "
              f"{row['function']:<10s} {row['latency_ns'] / 1e3:>9.1f} us  "
              f"{row['dominant_stage']} "
              f"({row['stages'][row['dominant_stage']] / 1e3:.1f} us, "
              f"sampled={row['sampled']})")

    policy = al["policy"]
    print(f"\n  burn-rate alerts: {al['fired']} fired, "
          f"{len(al['active'])} still active "
          f"(objective = {policy['slo_scale']:.0%} of SLO, "
          f"target {policy['target']:.0%})")
    if al["timeline"]:
        print("  ts            tenant        window  burn     event")
        for e in al["timeline"]:
            print(f"  {e['ts'] / 1e6:>9.3f} ms  {e['tenant']:<12s}  "
                  f"{e['window']:<6s} {e['burn']:>6.2f}   {e['event']}")
    else:
        print("  (no alert transitions -- the run stayed within budget)")
    if args.trace_out:
        print("load the trace in https://ui.perfetto.dev or chrome://tracing",
              file=sys.stderr)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro import perf

    def progress(name: str, entry: dict) -> None:
        print(f"  {name:<28s} {entry['wall_seconds']:>9.3f} s  "
              f"{entry['events_processed']:>9d} ev  "
              f"{entry['events_per_sec']:>12,.0f} ev/s", file=sys.stderr)

    mode = "quick" if args.quick else "full"
    print(f"running {mode} performance suite...", file=sys.stderr)
    payload = perf.run_benchmarks(quick=args.quick, only=args.only or None,
                                  progress=progress)
    with open(args.out, "w") as fh:
        fh.write(perf.to_json(payload))
    print(f"wrote {args.out}", file=sys.stderr)

    if args.compare:
        with open(args.compare) as fh:
            baseline = json.load(fh)
        for name in perf.new_benchmarks(payload, baseline):
            print(f"  new benchmark (not in baseline): {name}",
                  file=sys.stderr)
        failures = perf.compare(payload, baseline, threshold=args.threshold)
        if failures:
            print(f"PERFORMANCE REGRESSION vs {args.compare}:")
            for line in failures:
                print(f"  {line}")
            return 1
        print(f"no regressions vs {args.compare} "
              f"(threshold {args.threshold:.0%})", file=sys.stderr)
    return 0


def _add_shard_args(p: argparse.ArgumentParser) -> None:
    """The sharded-engine flags shared by jobs/serve/chaos.

    Passing either ``--partitions`` or ``--nodes`` selects the sharded
    engine; with neither, the legacy single-machine path runs unchanged.
    """
    p.add_argument("--partitions", type=int, default=None,
                   help="run the sharded engine with this many partitions")
    p.add_argument("--nodes", type=int, default=None,
                   help="Compute Nodes in the sharded machine "
                        "(default: max(2, partitions))")
    p.add_argument("--backend", default="auto",
                   choices=("auto", "inline", "process"),
                   help="where partitions execute (auto: processes when "
                        "multi-partition and multi-core)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ECOSCALE (DATE 2016) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="package inventory").set_defaults(fn=_cmd_info)

    p = sub.add_parser("machine", help="build a machine, report hierarchy metrics")
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--workers", type=int, default=8)
    p.add_argument("--intra-fanout", type=int, default=None)
    p.set_defaults(fn=_cmd_machine)

    p = sub.add_parser("power", help="exascale power extrapolation")
    p.add_argument("--exaflops", type=float, default=1.0)
    p.add_argument("--budget-mw", type=float, default=20.0)
    p.set_defaults(fn=_cmd_power)

    p = sub.add_parser("demo", help="short adaptive-runtime run")
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--layers", type=int, default=6)
    p.add_argument("--width", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=_cmd_demo)

    def add_telemetry_args(p: argparse.ArgumentParser) -> None:
        # keep in sync with repro.presets.NODE_PRESETS (not imported here:
        # parser construction must stay light for every subcommand)
        p.add_argument("preset", nargs="?", default="board",
                       choices=("board", "chassis", "hpc-board", "mini"),
                       help="node preset to run on")
        p.add_argument("--layers", type=int, default=6)
        p.add_argument("--width", type=int, default=10)
        p.add_argument("--seed", type=int, default=1)

    p = sub.add_parser("trace", help="instrumented run -> Perfetto trace JSON")
    add_telemetry_args(p)
    p.add_argument("--out", default="trace.json", help="trace file path")
    p.add_argument("--metrics-out", default=None,
                   help="also write the metrics snapshot JSON here")
    p.add_argument("--events-out", default=None,
                   help="also write the structured event log JSON here")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("metrics", help="instrumented run -> metrics snapshot")
    add_telemetry_args(p)
    p.add_argument("--format", choices=("json", "csv", "prom"), default="json")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(fn=_cmd_metrics)

    p = sub.add_parser("experiment", help="run one DESIGN.md experiment")
    p.add_argument("id", help="experiment id, e.g. FIG1 or CLAIM-COMPRESS")
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("chaos", help="fault-injection run + self-healing verdict")
    # keep in sync with repro.chaos.experiment.CHAOS_PRESETS (not imported
    # here: parser construction must stay light for every subcommand)
    p.add_argument("preset", nargs="?", default="board",
                   choices=("mini", "board", "board-transient", "chassis"),
                   help="chaos scenario to run")
    p.add_argument("--seed", type=int, default=0, help="chaos plan seed")
    p.add_argument("--events-out", default=None,
                   help="write the fault plan/injection JSON here")
    _add_shard_args(p)
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser(
        "checkpoint",
        help="checkpoint/restart: save, restore, ls, kill-and-restore, sweep",
    )
    p.add_argument("action",
                   choices=("save", "restore", "ls", "experiment", "sweep"),
                   help="save: checkpointed run -> snapshot dir; restore: "
                        "resume from the latest snapshot; ls: list snapshots; "
                        "experiment: kill a failure domain mid-run and "
                        "restore; sweep: MTBF x interval Daly validation")
    # keep in sync with repro.chaos.experiment.CHAOS_PRESETS (not imported
    # here: parser construction must stay light for every subcommand)
    p.add_argument("--preset", default="mini",
                   choices=("mini", "board", "board-transient", "chassis"),
                   help="chaos workload preset (save/experiment)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dir", default=None,
                   help="snapshot directory (save/restore/ls: default "
                        "checkpoints; experiment: persist snapshots here)")
    p.add_argument("--interval", type=float, default=100_000.0,
                   help="checkpoint cadence in ns (save)")
    p.add_argument("--until", type=float, default=None,
                   help="abandon the run at this sim time in ns (save; "
                        "default: run to completion)")
    p.add_argument("--snapshot", default=None,
                   help="explicit snapshot file to restore (default: latest)")
    p.add_argument("--domain", default="rack0",
                   help="failure domain to kill (experiment)")
    p.add_argument("--trials", type=int, default=48,
                   help="renewal trials per sweep cell (sweep)")
    p.add_argument("--out", default=None,
                   help="write the canonical report JSON here (restore/sweep)")
    p.add_argument("--events-out", default=None,
                   help="write the experiment verdict JSON here (experiment)")
    p.set_defaults(fn=_cmd_checkpoint)

    p = sub.add_parser("jobs", help="multi-tenant job mix -> per-job reports")
    # keep in sync with repro.presets.JOB_PRESETS (not imported here:
    # parser construction must stay light for every subcommand)
    p.add_argument("preset", nargs="?", default="mini",
                   choices=("mini", "board", "chassis"),
                   help="job mix to run")
    p.add_argument("--seed", type=int, default=0,
                   help="offset added to every job's graph seed")
    p.add_argument("--out", default=None,
                   help="write the canonical MachineReport JSON here")
    _add_shard_args(p)
    p.set_defaults(fn=_cmd_jobs)

    p = sub.add_parser(
        "serve",
        help="open-loop serving: traffic -> admission -> batching -> SLOs",
    )
    # keep in sync with repro.presets.SERVING_PRESETS (not imported here:
    # parser construction must stay light for every subcommand)
    p.add_argument("--preset", default="steady",
                   choices=("diurnal", "flash-crowd", "steady"),
                   help="serving scenario to run")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the arrival processes")
    p.add_argument("--out", default=None,
                   help="write the canonical ServingReport JSON here")
    _add_shard_args(p)
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "inspect",
        help="traced serving run -> critical path, slowest requests, alerts",
    )
    # keep in sync with repro.presets.SERVING_PRESETS (not imported here:
    # parser construction must stay light for every subcommand)
    p.add_argument("--preset", default="steady",
                   choices=("diurnal", "flash-crowd", "steady"),
                   help="serving scenario to trace")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the arrival processes")
    p.add_argument("--sample-every", type=int, default=8,
                   help="head-sample 1 request in N (1 = trace everything)")
    p.add_argument("--top-k", type=int, default=5,
                   help="slowest requests surfaced in the report")
    p.add_argument("--slo-scale", type=float, default=0.1,
                   help="internal alert objective as a fraction of each "
                        "tenant's SLO (SRE objective < agreement)")
    p.add_argument("--out", default=None,
                   help="write the canonical ServingReport JSON here")
    p.add_argument("--trace-out", default=None,
                   help="also export the Perfetto trace JSON here")
    p.add_argument("--events-out", default=None,
                   help="also export the structured event log JSON here")
    p.set_defaults(fn=_cmd_inspect)

    # cheap import: repro.perf's benchmark bodies import the simulator
    # lazily, so `info` stays fast
    from repro import perf

    p = sub.add_parser(
        "bench",
        help="wall-clock micro-benchmarks -> canonical BENCH_perf.json",
    )
    p.add_argument("--quick", action="store_true",
                   help="smaller iteration counts (CI smoke mode)")
    p.add_argument("--only", action="append", default=None, metavar="NAME",
                   choices=list(perf.BENCHMARKS),
                   help="run only this benchmark (repeatable): "
                        + ", ".join(perf.BENCHMARKS))
    p.add_argument("--out", default="BENCH_perf.json",
                   help="output path (default: BENCH_perf.json)")
    p.add_argument("--compare", default=None, metavar="BASELINE",
                   help="baseline BENCH_perf.json; exit 1 on regression")
    p.add_argument("--threshold", type=float, default=0.30,
                   help="relative slowdown tolerated by --compare")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser(
        "daemon",
        help="always-on service mode: live machine + JSON control plane",
    )
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="unix socket to serve the NDJSON protocol on "
                        "(default: repro.sock when --http is not given)")
    p.add_argument("--http", type=int, default=None, metavar="PORT",
                   help="also serve HTTP: GET /metrics, GET /status, POST /rpc")
    p.add_argument("--host", default="127.0.0.1", help="HTTP bind host")
    # keep in sync with repro.presets.SERVING_PRESETS (not imported here:
    # parser construction must stay light for every subcommand)
    p.add_argument("--preset", default="steady",
                   choices=("diurnal", "flash-crowd", "steady"),
                   help="default serving preset for submits")
    p.add_argument("--seed", type=int, default=0, help="default seed")
    p.add_argument("--window-ns", type=float, default=100_000.0,
                   help="control window: commands apply at these boundaries")
    p.add_argument("--snapshot-dir", default="service-snapshots",
                   help="where snapshot/restore persist session state")
    p.add_argument("--restore", default=None, metavar="SNAPSHOT",
                   help="replay this snapshot before serving")
    p.add_argument("--no-telemetry", action="store_true",
                   help="run epochs without a metrics hub")
    p.set_defaults(fn=_cmd_daemon)

    p = sub.add_parser(
        "client",
        help="speak the daemon protocol: ping, submit, status, drain, ...",
    )
    p.add_argument("command",
                   choices=("ping", "status", "submit", "step", "run",
                            "report", "metrics", "events", "reconfigure",
                            "chaos", "snapshot", "restore", "drain",
                            "shutdown", "script"),
                   help="protocol command (script: run a .jsonl frame file)")
    p.add_argument("args", nargs="?", default=None,
                   help="JSON object of command arguments "
                        "(script: path to the .jsonl file)")
    p.add_argument("--socket", default="repro.sock", metavar="PATH",
                   help="daemon unix socket (default: repro.sock)")
    p.add_argument("--http", type=int, default=None, metavar="PORT",
                   help="talk HTTP POST /rpc instead of the unix socket")
    p.add_argument("--host", default="127.0.0.1", help="HTTP host")
    p.add_argument("--timeout", type=float, default=60.0,
                   help="transport timeout in seconds")
    p.add_argument("--out", default=None,
                   help="write a reply's report/metrics payload here "
                        "(byte-identical to batch-mode files)")
    p.set_defaults(fn=_cmd_client)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except KeyboardInterrupt:
        # a long bench/serve/chaos run interrupted at the terminal: one
        # clean line and the conventional 128+SIGINT exit code, never a
        # traceback (the daemon converts SIGINT into a drain before this)
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
