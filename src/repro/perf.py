"""The performance-regression harness behind ``python -m repro bench``.

Times the micro-benchmarks no ``benchmarks/e2e`` workload reaches -- the
raw event loop, zero-delay process wake-ups, batched OpenCL work-group
dispatch and SMMU translation -- and writes a canonical ``BENCH_perf.json`` (sorted keys, fixed schema).  End-to-end
host speed (jobs, serving, chaos, shards) is measured by
``benchmarks/e2e`` alone, with fresh processes and repeated runs.

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
from typing import Any, Callable, Dict, List, Optional

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


#: registered benchmarks, in canonical execution order
BENCHMARKS: Dict[str, Callable[[bool], int]] = {
    "sim.engine": bench_sim_engine,
    "sim.wakeups": bench_sim_wakeups,
    "opencl.ndrange_workgroups": bench_ndrange_workgroups,
    "memory.smmu_translate": bench_smmu_translate,
}


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
def run_benchmarks(
    quick: bool = False,
    only: Optional[List[str]] = None,
    progress: Optional[Callable[[str, Dict[str, Any]], None]] = None,
) -> Dict[str, Any]:
    """Run the suite and return the BENCH_perf payload (not yet written)."""
    names = list(BENCHMARKS) if not only else list(only)
    unknown = [n for n in names if n not in BENCHMARKS]
    if unknown:
        known = ", ".join(BENCHMARKS)
        raise KeyError(f"unknown benchmark(s) {unknown}; choose from: {known}")
    results: Dict[str, Dict[str, float]] = {}
    for name in names:
        fn = BENCHMARKS[name]
        # one untimed warm call, so the timed call measures steady-state
        # work rather than first-call imports and cache fills
        fn(quick)
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
