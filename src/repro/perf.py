"""The performance-regression harness behind ``python -m repro bench``.

Times the simulator's hot paths -- the raw event loop, batched work-group
dispatch, SMMU translation, an end-to-end serving preset, and the
exascale machine-construction sweep -- and writes a canonical
``BENCH_perf.json`` (sorted keys, fixed schema) so the wall-clock
trajectory of the codebase is versioned alongside its behavior.

Schema (``repro-bench/v1``)::

    {
      "schema": "repro-bench/v1",
      "quick": false,
      "benchmarks": {
        "<name>": {
          "wall_seconds": 1.234,
          "events_processed": 100000,
          "events_per_sec": 81000.5
        },
        ...
      }
    }

``events_processed`` counts simulation events where the benchmark drives
a :class:`~repro.sim.Simulator`, and modelled operations (translations,
work items) for benchmarks that exercise a component directly; either
way ``events_per_sec`` is the throughput headline for that benchmark.

The regression gate (:func:`compare`) is what CI's bench-smoke job runs:
a benchmark fails if it got more than ``threshold`` slower than the
committed baseline *and* the absolute slowdown exceeds a small floor
(sub-100ms deltas are timer noise on shared runners, not regressions).
"""

from __future__ import annotations

import gc
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: canonical output filename, written at the repository root
BENCH_FILENAME = "BENCH_perf.json"

SCHEMA = "repro-bench/v1"

#: relative slowdown tolerated before a benchmark fails the gate
DEFAULT_THRESHOLD = 0.30

#: absolute slowdown floor (seconds): deltas below this never fail
NOISE_FLOOR_SECONDS = 0.1


# ----------------------------------------------------------------------
# individual benchmarks.  Each returns (events_processed,) after doing
# its work; the harness supplies the timing around it.
# ----------------------------------------------------------------------
def bench_sim_engine(quick: bool) -> int:
    """Raw event-loop throughput: self-rescheduling callback chains."""
    from repro.sim import Simulator

    total = 20_000 if quick else 200_000
    sim = Simulator()
    chains = 16
    per_chain = total // chains

    def tick(remaining: int) -> None:
        if remaining:
            sim.schedule(1.0, tick, remaining - 1)

    for c in range(chains):
        sim.schedule(float(c), tick, per_chain - 1)
    sim.run()
    return sim.events_processed


def bench_sim_cancellation(quick: bool) -> int:
    """Schedule/cancel churn: timeouts that are mostly cancelled.

    Exercises the O(1) pending counter and heap compaction -- the
    pattern batching timers (serving) and watchdogs (chaos) produce.
    """
    from repro.sim import Simulator

    rounds = 2_000 if quick else 20_000
    sim = Simulator()

    def noop() -> None:
        pass

    for r in range(rounds):
        keep = sim.schedule(float(r) + 1.0, noop)
        for _ in range(4):
            sim.schedule(float(r) + 2.0, noop).cancel()
        assert sim.pending > 0  # O(1) now; this used to scan the heap
        del keep
    sim.run()
    return sim.events_processed


def bench_sim_wakeups(quick: bool) -> int:
    """Zero-delay wake-up traffic: processes ping-pong through a
    :class:`Signal`, ``Store.get``/``put`` and an uncontended
    ``Resource`` -- the resumes every scheduler, layer model and grant in
    the runtime produces, which ``sim.engine`` never exercises."""
    from repro.sim import Resource, Signal, Simulator, Store, Timeout, spawn

    rounds = 2_000 if quick else 20_000
    pairs = 8
    sim = Simulator()

    def client(inbox, bus):
        for _ in range(rounds // pairs):
            reply = Signal(sim)
            yield inbox.put(reply)
            req = bus.request()
            yield req
            bus.release(req)
            yield reply
            yield Timeout(1.0)

    def server(inbox):
        while True:
            reply = yield inbox.get()
            reply.succeed()

    for _ in range(pairs):
        inbox = Store(sim)
        spawn(sim, server(inbox))
        spawn(sim, client(inbox, Resource(sim)))
    sim.run()
    return sim.events_processed


def bench_ndrange_workgroups(quick: bool) -> int:
    """Batched CPU work-group dispatch through the OpenCL layer."""
    import numpy as np

    from repro.core import ComputeNode, ComputeNodeParams, WorkerParams
    from repro.hls import saxpy_kernel
    from repro.opencl import CommandQueue, Context, DeviceType, Platform
    from repro.opencl.program import Program
    from repro.sim import Simulator

    repeats = 20 if quick else 200
    sim = Simulator()
    node = ComputeNode(
        sim, ComputeNodeParams(num_workers=1, worker=WorkerParams(cpu_cores=4))
    )
    plat = Platform(node)
    ctx = Context(plat)
    prog = Program([saxpy_kernel(8192)])
    bufs = (
        ctx.create_buffer(4 * 8192, dtype=np.float32),
        ctx.create_buffer(4 * 8192, dtype=np.float32),
    )
    queue = CommandQueue(ctx, plat.device(0, DeviceType.CPU))
    kernel = prog.kernel("saxpy").set_args(*bufs)
    for _ in range(repeats):
        queue.enqueue_nd_range(kernel, 8192, work_groups=64)
    queue.finish()
    return sim.events_processed


def bench_smmu_translate(quick: bool) -> int:
    """TLB-hit-dominated dual-stage translation (the UNIMEM fast path)."""
    from repro.memory.address import PAGE_SIZE
    from repro.memory.smmu import PageTable, Smmu, TranslationRegime

    accesses = 50_000 if quick else 500_000
    pages = 32
    s1 = PageTable("s1")
    s2 = PageTable("s2")
    for p in range(pages):
        s1.map(p, p + 100)
        s2.map(p + 100, p + 200)
    smmu = Smmu(tlb_entries=64)
    smmu.attach_context(7, TranslationRegime.NESTED, stage1=s1, stage2=s2)
    translate = smmu.translate
    for i in range(accesses):
        translate(7, ((i * 7) % pages) * PAGE_SIZE + (i % PAGE_SIZE))
    return smmu.stats.translations


def bench_serving_steady(quick: bool) -> int:
    """End-to-end serving `steady` preset (compile + serve + report)."""
    from repro.serving.gateway import build_serving_gateway

    gateway = build_serving_gateway("steady")
    gateway.run().json()  # include report serialization in the timed region
    return gateway.sim.events_processed


def bench_serving_steady_traced(quick: bool) -> int:
    """The `steady` preset with request tracing + burn-rate alerting on.

    Paired with ``serving.steady``: the two walls bound the observability
    tax (CI's trace-smoke job asserts the ratio stays under its gate).
    """
    from repro.serving.alerts import BurnRatePolicy
    from repro.serving.gateway import build_serving_gateway
    from repro.serving.tracing import TraceConfig

    gateway = build_serving_gateway(
        "steady",
        tracing=TraceConfig(sample_every=1),       # worst case: trace all
        alerts=BurnRatePolicy(slo_scale=0.1),
    )
    gateway.run().json()  # include report serialization in the timed region
    return gateway.sim.events_processed


def bench_exascale_build(quick: bool) -> int:
    """The exascale example's scaling sweep: build the machine hierarchy,
    run a 4 KiB allreduce, measure the worst hop distance."""
    from repro.core import ComputeNodeParams, Machine, MachineParams
    from repro.sim import Simulator

    configs: List[Tuple[int, Optional[List[int]], int, Optional[int]]] = [
        (1, None, 4, None),
        (4, [4], 4, None),
        (16, [4, 4], 8, 4),
        (64, [4, 4, 4], 8, 4),
    ]
    if quick:
        configs = configs[:3]
    events = 0
    for nodes, fanouts, wpn, intra in configs:
        sim = Simulator()
        machine = Machine(
            sim,
            MachineParams(
                num_nodes=nodes,
                node=ComputeNodeParams(num_workers=wpn, intra_fanout=intra),
                inter_node_fanouts=fanouts,
            ),
        )
        machine.world.allreduce(4096)
        machine.max_hop_distance()
        # machine construction is the cost here (the collectives are
        # analytic): count the Workers built as the modelled operations
        events += machine.total_workers + sim.events_processed
    return events


def bench_exascale_build_warm(quick: bool) -> int:
    """The exascale sweep's node bring-up through the warm-start path.

    Same node shapes as :func:`bench_exascale_build`, but every Compute
    Node is stamped from a :class:`~repro.shard.bringup.NodeTemplate`
    via a fresh cache: the first node of each shape pays template
    construction, the rest reuse it.  Compared against
    ``machine.exascale_build`` this is the headline for what
    ``--warm-start`` buys on construction-dominated work (templated
    builds are bit-identical to cold ones, so the speedup is free).
    """
    from repro.core import ComputeNodeParams
    from repro.shard.bringup import TemplateCache, build_node
    from repro.sim import Simulator

    configs: List[Tuple[int, Optional[List[int]], int, Optional[int]]] = [
        (1, None, 4, None),
        (4, [4], 4, None),
        (16, [4, 4], 8, 4),
        (64, [4, 4, 4], 8, 4),
    ]
    if quick:
        configs = configs[:3]
    workers = 0
    for nodes, _fanouts, wpn, intra in configs:
        # fresh cache per config: measures template amortization within
        # one build, not leakage across benchmark iterations
        cache = TemplateCache()
        params = ComputeNodeParams(num_workers=wpn, intra_fanout=intra)
        for node_id in range(nodes):
            sim = Simulator()
            node = build_node(sim, params, node_id, cache=cache)
            workers += len(node)
    return workers


def make_bench_sharded_build(partitions: int) -> Callable[[bool], int]:
    """The exascale sweep through the sharded engine at one shard count.

    Same machine shapes as :func:`bench_exascale_build`; bring-up goes
    through the per-node template cache, so this is the headline for
    what sharding buys on construction-dominated work.
    """

    def bench(quick: bool) -> int:
        from repro.shard import run_sharded_build

        configs: List[Tuple[int, Optional[List[int]], int, Optional[int]]] = [
            (1, None, 4, None),
            (4, [4], 4, None),
            (16, [4, 4], 8, 4),
            (64, [4, 4, 4], 8, 4),
        ]
        if quick:
            configs = configs[:3]
        events = 0
        for nodes, fanouts, wpn, intra in configs:
            result = run_sharded_build(
                num_nodes=nodes,
                workers_per_node=wpn,
                intra_fanout=intra,
                inter_node_fanouts=fanouts,
                partitions=min(partitions, nodes),
            )
            events += result["total_workers"]
        return events

    return bench


def make_bench_sharded_serving(partitions: int) -> Callable[[bool], int]:
    """The serving `steady` preset across a 4-node sharded machine."""

    def bench(quick: bool) -> int:
        from repro.shard import run_sharded_serving

        report = run_sharded_serving(
            "steady", seed=0, num_nodes=4, partitions=min(partitions, 4)
        )
        return report["sync"]["events"]

    return bench


#: registered benchmarks, in canonical execution order
BENCHMARKS: Dict[str, Callable[[bool], int]] = {
    "sim.engine": bench_sim_engine,
    "sim.cancellation": bench_sim_cancellation,
    "sim.wakeups": bench_sim_wakeups,
    "opencl.ndrange_workgroups": bench_ndrange_workgroups,
    "memory.smmu_translate": bench_smmu_translate,
    "serving.steady": bench_serving_steady,
    "serving.steady.traced": bench_serving_steady_traced,
    "machine.exascale_build": bench_exascale_build,
    "machine.exascale_build.warm": bench_exascale_build_warm,
}


def benchmark_registry(partitions: int = 1) -> Dict[str, Callable[[bool], int]]:
    """The canonical suite plus the sharded-engine entries.

    ``.shard1`` entries always run (the sharded engine at one partition
    -- the byte-identity reference); a ``.shard{p}`` pair is added when
    ``partitions > 1``.  Single-threaded entries keep their historical
    names so committed baselines stay comparable.
    """
    registry = dict(BENCHMARKS)
    registry["machine.exascale_build.shard1"] = make_bench_sharded_build(1)
    registry["serving.steady.shard1"] = make_bench_sharded_serving(1)
    if partitions > 1:
        registry[f"machine.exascale_build.shard{partitions}"] = (
            make_bench_sharded_build(partitions)
        )
        registry[f"serving.steady.shard{partitions}"] = (
            make_bench_sharded_serving(partitions)
        )
    return registry


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
def run_benchmarks(
    quick: bool = False,
    only: Optional[List[str]] = None,
    progress: Optional[Callable[[str, Dict[str, Any]], None]] = None,
    partitions: int = 1,
) -> Dict[str, Any]:
    """Run the suite and return the BENCH_perf payload (not yet written)."""
    registry = benchmark_registry(partitions)
    names = list(registry) if not only else list(only)
    unknown = [n for n in names if n not in registry]
    if unknown:
        known = ", ".join(registry)
        raise KeyError(f"unknown benchmark(s) {unknown}; choose from: {known}")
    results: Dict[str, Dict[str, float]] = {}
    for name in names:
        fn = registry[name]
        # collect before and pause the collector during the timed
        # region, so one benchmark's garbage is never billed to the
        # next one's wall clock
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            events = fn(quick)
            wall = time.perf_counter() - start
        finally:
            if gc_was_enabled:
                gc.enable()
        entry = {
            "wall_seconds": round(wall, 6),
            "events_processed": int(events),
            "events_per_sec": round(events / wall, 3) if wall > 0 else 0.0,
        }
        results[name] = entry
        if progress is not None:
            progress(name, entry)
    return {"schema": SCHEMA, "quick": quick, "benchmarks": results}


def to_json(payload: Dict[str, Any]) -> str:
    """Canonical serialized form: sorted keys, two-space indent."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def compare(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
    noise_floor: float = NOISE_FLOOR_SECONDS,
) -> List[str]:
    """Regression gate: failures for benchmarks slower than baseline.

    Returns human-readable failure lines (empty = gate passes).  Only
    benchmarks present in both payloads are compared, so adding or
    removing a benchmark never trips the gate by itself.
    """
    failures = []
    base = baseline.get("benchmarks", {})
    cur = current.get("benchmarks", {})
    for name in sorted(set(base) & set(cur)):
        old = float(base[name]["wall_seconds"])
        new = float(cur[name]["wall_seconds"])
        if new > old * (1.0 + threshold) and new - old > noise_floor:
            failures.append(
                f"{name}: {new:.3f}s vs baseline {old:.3f}s "
                f"(+{100.0 * (new - old) / old:.0f}%, threshold "
                f"{100.0 * threshold:.0f}%)"
            )
    return failures


def new_benchmarks(
    current: Dict[str, Any], baseline: Dict[str, Any]
) -> List[str]:
    """Benchmarks present in ``current`` but absent from the baseline.

    These are *informational*: a benchmark the baseline has never seen
    cannot regress, so the gate reports it as new instead of failing.
    """
    cur = set(current.get("benchmarks", {}))
    base = set(baseline.get("benchmarks", {}))
    return sorted(cur - base)
