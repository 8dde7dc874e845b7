"""Seeded inputs, item execution and output checks for the end-to-end benchmark.

A workload is an endless stream of *items*.  Item ``i`` of workload ``w``
under seed ``s`` is a pure function of ``(w, s, i)``: :func:`generate`
builds it without touching any global state, so the stream can be
replayed, indexed out of order, or compared across seeds in a test.

Inputs reach the program only through its public preset registries
(``JOB_PRESETS``, ``SERVING_PRESETS``, ``CHAOS_PRESETS``): :func:`execute`
registers the generated preset under :data:`PRESET_NAME`, calls the same
``run_*`` entry point the CLI calls, and removes the entry again.

An input has a *shape* -- node preset, job count, graph sizes, tenants,
rates, request counts, SLOs, functions, fault mix -- and *content*: the
graph seeds, job priorities, and the ``run_*`` seed that draws arrival
times and fault plans.  The shape of item ``i`` is the same for every
seed; the seed changes only the content.  So every seed runs the same
mix of input sizes on different inputs, which keeps medians over 100
items steady from one seed to the next.  Shapes are drawn
block-stratified: inside every block of :data:`BLOCK` consecutive items,
each numeric parameter visits each of its ``BLOCK`` equal-width strata
exactly once.
"""

from __future__ import annotations

import hashlib
import random
import statistics
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Sequence

from repro.chaos import (
    CHAOS_PRESETS,
    ChaosPreset,
    build_domain_tree,
    run_chaos_experiment,
    run_checkpoint_restore_experiment,
)
from repro.experiments import run_jobs_experiment
from repro.presets import (
    JOB_PRESETS,
    SERVING_PRESETS,
    JobMix,
    JobSpec,
    ServingScenario,
    TenantSpec,
    node_preset,
)
from repro.serving import run_serving_experiment
from repro.shard import report_json, run_sharded_jobs, run_sharded_serving

#: the registry key every generated input is published under while it runs
PRESET_NAME = "e2e"

#: stratification block length (items)
BLOCK = 8

#: simulated offered-rate multiples of a serving scenario's base rates
LADDER = (0.5, 1.0, 2.0, 4.0)

#: a rung counts toward the max rate when every tenant completes at
#: least this share of its offered requests within its SLO
SLO_SHARE = 0.95

SHARD_NODES = 4
POLICIES = ("greedy-hw", "energy", "locality")
ARRIVALS = ("poisson", "bursty", "diurnal")
SERVE_FUNCTIONS = ("saxpy", "fir32", "stencil5", "matmul", "montecarlo")
#: peak-to-base arrival-rate ratios of the bursty and diurnal tenants
BURST = 4.0
DIURNAL_HIGH = 2.0


@dataclass(frozen=True)
class Item:
    """One unit of closed-loop work: a generated input and how to run it."""

    workload: str
    index: int
    kind: str            # jobs | serve | chaos | ckpt | shard-jobs | shard-serve
    spec: Any            # JobMix | ServingScenario | ChaosPreset
    seed: int            # the run_* seed (fault plan, graph and arrival offsets)
    group: int = 0       # serving scenario / chaos pair / sharded input number
    rung: float = 1.0    # serve-ladder: multiple of the scenario's base rates
    domain: str = ""     # ckpt: the failure domain killed mid-run
    partitions: int = 1  # shard: 1 (inline) or 2 (process backend)
    expected_tasks: int = 0


# ----------------------------------------------------------------------
# seeded, block-stratified draws
# ----------------------------------------------------------------------
class _Draw:
    """Shape draws (seed-independent) and content draws for one stream."""

    def __init__(self, stream: str, seed: int) -> None:
        self.stream = stream
        self.seed = seed

    def uniform(self, index: int, name: str, lo: float, hi: float) -> float:
        """Stratified shape value in ``[lo, hi)``."""
        block, pos = divmod(index, BLOCK)
        order = list(range(BLOCK))
        random.Random(f"{self.stream}/{block}/{name}").shuffle(order)
        u = random.Random(f"{self.stream}/{index}/{name}").random()
        return lo + (order[pos] + u) / BLOCK * (hi - lo)

    def integer(self, index: int, name: str, lo: int, hi: int) -> int:
        """Stratified shape integer in ``[lo, hi]`` inclusive."""
        return min(hi, int(self.uniform(index, name, lo, hi + 1)))

    def choice(self, index: int, name: str, options: Sequence[Any]) -> Any:
        return options[self.integer(index, name, 0, len(options) - 1)]

    def shape(self, index: int) -> random.Random:
        """Unstratified shape details (functions, policies, link faults)."""
        return random.Random(f"{self.stream}/{index}")

    def rng(self, index: int, purpose: str) -> random.Random:
        """Content: graph seeds, priorities and the run seed."""
        return random.Random(f"{self.stream}/{self.seed}/{index}/{purpose}")


def _job_mix(d: _Draw, g: int, nodes: Sequence[str], jobs: tuple,
             layers: tuple, width: tuple) -> JobMix:
    rng = d.rng(g, "graphs")
    offset = d.shape(g).randrange(len(POLICIES))
    specs = []
    for j in range(d.integer(g, "jobs", *jobs)):
        specs.append(
            JobSpec(
                POLICIES[(j + offset) % len(POLICIES)],
                priority=rng.randint(1, 4),
                layers=d.integer(g, f"layers{j}", *layers),
                width=d.integer(g, f"width{j}", *width),
                graph_seed=rng.randrange(1, 1 << 16),
                dataflow=(j % 3 == 2),
            )
        )
    return JobMix(node=d.choice(g, "node", nodes), jobs=tuple(specs))


def _mix_tasks(mix: JobMix) -> int:
    return sum(spec.layers * spec.width for spec in mix.jobs)


def _scenario(d: _Draw, g: int, nodes: Sequence[str], tenants: tuple,
              requests: tuple) -> ServingScenario:
    shape = d.shape(g)
    offset = d.integer(g, "arrivals", 0, len(ARRIVALS) - 1)
    node = d.choice(g, "node", nodes)
    # per-tenant base rates scaled to the node's Worker count
    scale = node_preset(node).num_workers / 4.0
    out = []
    for t in range(d.integer(g, "tenants", *tenants)):
        rate = d.uniform(g, f"rate{t}", 30_000.0, 90_000.0) * scale
        arrival = ARRIVALS[(t + offset) % len(ARRIVALS)]
        peak = {"poisson": 1.0, "bursty": BURST, "diurnal": DIURNAL_HIGH}[arrival]
        top = t == 0
        out.append(
            TenantSpec(
                name=f"t{t}",
                arrival=arrival,
                rate_rps=rate,
                requests=d.integer(g, f"requests{t}", *requests),
                functions=tuple(shape.sample(SERVE_FUNCTIONS, shape.randint(1, 2))),
                items_range=(512, 2048) if top else (1024, 4096),
                policy="greedy-hw" if top else shape.choice(POLICIES),
                priority=2 if top else 1,
                slo_ns=(
                    d.uniform(g, f"slo{t}", 300_000.0, 600_000.0)
                    if top
                    else d.uniform(g, f"slo{t}", 1_500_000.0, 3_000_000.0)
                ),
                # >= 2x the peak arrival rate at x1: the x0.5 and x1
                # rungs are never rate-limited by construction
                admit_rate_rps=rate * peak * d.uniform(g, f"admit{t}", 2.0, 3.0),
                admit_burst=16.0,
                burst_multiplier=BURST,
                diurnal_high=DIURNAL_HIGH,
            )
        )
    return ServingScenario(node=node, tenants=tuple(out))


def _at_rung(scenario: ServingScenario, rung: float) -> ServingScenario:
    return replace(
        scenario,
        tenants=tuple(replace(t, rate_rps=t.rate_rps * rung) for t in scenario.tenants),
    )


def _chaos_preset(d: _Draw, g: int) -> ChaosPreset:
    shape = d.shape(g)
    node = d.choice(g, "node", ("board", "chassis"))
    width = (8, 16) if node == "board" else (12, 24)
    return ChaosPreset(
        node=node,
        layers=d.integer(g, "layers", 4, 7),
        width=d.integer(g, "width", *width),
        graph_seed=d.rng(g, "graphs").randrange(1, 1 << 16),
        worker_crashes=d.integer(g, "crashes", 1, 2),
        transient_fraction=d.uniform(g, "transient", 0.0, 1.0),
        link_degradations=d.integer(g, "links", 0, 2),
        link_drop_rate=shape.uniform(0.02, 0.08),
        link_latency_multiplier=shape.uniform(2.0, 4.0),
    )


def _domain(d: _Draw, g: int, node: str) -> str:
    tree = build_domain_tree(node_preset(node).num_workers)
    tier = d.choice(g, "tier", ("blade", "rack"))
    return d.choice(g, "domain", [dom.name for dom in tree.domains(tier)])


def generate(workload: str, seed: int, index: int, warmup: bool = False) -> Item:
    """Item ``index`` of ``workload``'s stream for ``seed``.

    ``warmup=True`` selects a separate stream, so warm-up items never
    repeat a timed input.  The workload names are those in
    ``BENCHMARK.json``.
    """
    d = _Draw(f"{workload}/{'warmup' if warmup else 'timed'}", seed)
    run_seed = d.rng(index, "run").randrange(1000)

    if workload == "jobs-dag":
        mix = _job_mix(d, index, ("board", "chassis"), (3, 6), (3, 8), (6, 24))
        return Item(workload, index, "jobs", mix, run_seed,
                    group=index, expected_tasks=_mix_tasks(mix))

    if workload == "serve-ladder":
        # each rung draws its own arrivals: 100 independent samples, not
        # 25 groups of four correlated ones
        g, r = divmod(index, len(LADDER))
        base = _scenario(d, g, ("mini", "board"), (2, 3), (150, 600))
        return Item(workload, index, "serve", _at_rung(base, LADDER[r]),
                    run_seed, group=g, rung=LADDER[r])

    if workload == "chaos-recover":
        # items alternate entry points; each entry point has its own
        # stratified stream so both see every stratum
        g, r = divmod(index, 2)
        kind = ("chaos", "ckpt")[r]
        dk = _Draw(f"{d.stream}/{kind}", seed)
        preset = _chaos_preset(dk, g)
        domain = _domain(dk, g, preset.node) if kind == "ckpt" else ""
        return Item(workload, index, kind, preset, run_seed, group=g, domain=domain)

    if workload != "shard-4node":
        raise KeyError(f"unknown workload {workload!r}")
    # one input, run at P=1 and P=2; which runs first alternates
    g, r = divmod(index, 2)
    partitions = (1, 2)[r] if g % 2 == 0 else (2, 1)[r]
    input_seed = d.rng(g, "run").randrange(1000)
    # 3 job mixes to 1 serving scenario: their makespans and host times
    # form two clusters, and an even split would put every median on the
    # gap between them
    if d.choice(g, "kind", ("jobs", "jobs", "jobs", "serve")) == "jobs":
        mix = _job_mix(d, g, ("mini", "board"), (3, 3), (3, 4), (4, 10))
        return Item(workload, index, "shard-jobs", mix, input_seed, group=g,
                    partitions=partitions,
                    expected_tasks=SHARD_NODES * _mix_tasks(mix))
    scenario = _scenario(d, g, ("mini",), (2, 2), (120, 360))
    return Item(workload, index, "shard-serve", scenario, input_seed, group=g,
                partitions=partitions)


# ----------------------------------------------------------------------
# running one item: the "run" and "report" spans
# ----------------------------------------------------------------------
_REGISTRY = {
    "jobs": JOB_PRESETS,
    "shard-jobs": JOB_PRESETS,
    "serve": SERVING_PRESETS,
    "shard-serve": SERVING_PRESETS,
    "chaos": CHAOS_PRESETS,
    "ckpt": CHAOS_PRESETS,
}


def execute(item: Item) -> Any:
    """Publish the item's preset and run it through the CLI's entry point."""
    registry = _REGISTRY[item.kind]
    if PRESET_NAME in registry:
        raise RuntimeError(f"preset name {PRESET_NAME!r} is already registered")
    registry[PRESET_NAME] = item.spec
    try:
        if item.kind == "jobs":
            return run_jobs_experiment(PRESET_NAME, seed=item.seed)
        if item.kind == "serve":
            return run_serving_experiment(PRESET_NAME, seed=item.seed)
        if item.kind == "chaos":
            return run_chaos_experiment(PRESET_NAME, seed=item.seed)
        if item.kind == "ckpt":
            return run_checkpoint_restore_experiment(
                PRESET_NAME, seed=item.seed, domain=item.domain
            )
        shard = run_sharded_jobs if item.kind == "shard-jobs" else run_sharded_serving
        return shard(
            PRESET_NAME,
            seed=item.seed,
            num_nodes=SHARD_NODES,
            partitions=item.partitions,
            backend="inline" if item.partitions == 1 else "process",
        )
    finally:
        del registry[PRESET_NAME]


def canonical(item: Item, report: Any) -> str:
    """The report's canonical JSON, as the CLI writes it."""
    if item.kind in ("jobs", "serve"):
        return report.json()
    if item.kind in ("chaos", "ckpt"):
        return report.events_json()
    return report_json(report)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def _serving_invariants(r: Dict[str, Any]) -> List[str]:
    bad = []
    if r["offered"] != r["admitted"] + r["shed"]:
        bad.append(f"offered {r['offered']} != admitted {r['admitted']} + shed {r['shed']}")
    if r["completed"] != r["admitted"]:
        bad.append(f"completed {r['completed']} != admitted {r['admitted']}")
    if r["unrecovered"] != 0:
        bad.append(f"{r['unrecovered']} unrecovered requests")
    return bad


def check(item: Item, report: Any) -> List[str]:
    """Invariant violations of one item's report (empty when correct)."""
    if item.kind == "jobs":
        bad = []
        if report.tasks_unrecovered:
            bad.append(f"{report.tasks_unrecovered} unrecovered tasks")
        if report.tasks != item.expected_tasks:
            bad.append(f"{report.tasks} tasks ran, graphs hold {item.expected_tasks}")
        return bad
    if item.kind == "serve":
        return _serving_invariants(report.to_dict())
    if item.kind in ("chaos", "ckpt"):
        return [] if report.integrity_ok else ["integrity verdict failed"]
    if item.kind == "shard-serve":
        return _serving_invariants(report)
    bad = []
    if report["tasks_unrecovered"]:
        bad.append(f"{report['tasks_unrecovered']} unrecovered tasks")
    if report["tasks"] != item.expected_tasks:
        bad.append(f"{report['tasks']} tasks ran, graphs hold {item.expected_tasks}")
    return bad


# ----------------------------------------------------------------------
# per-item summaries and the simulated metrics built from them
# ----------------------------------------------------------------------
def summarize(item: Item, report: Any) -> Dict[str, Any]:
    """The simulated numbers one item contributes (plain JSON types).

    ``work`` is what ``work_per_s`` counts: simulated runtime tasks the
    item's reports say completed, or requests offered on serve-ladder.
    """
    s: Dict[str, Any] = {"kind": item.kind, "group": item.group}
    if item.kind == "jobs":
        s.update(
            work=report.tasks, makespan_ns=report.makespan_ns,
            energy_pj=report.energy_pj, tasks=report.tasks,
            sw_calls=report.sw_calls, hw_calls=report.hw_calls,
            reconfigurations=report.reconfigurations,
            job_p99_ns=report.job_latency_summary()["p99"],
        )
    elif item.kind == "serve":
        d = report.to_dict()
        m = d["machine"]
        tenants = item.spec.tenants
        within = {
            name: round(t["slo_attainment"] * t["completed"])
            for name, t in d["tenants"].items()
        }
        s.update(
            work=d["offered"], makespan_ns=d["horizon_ns"],
            energy_pj=m["energy_pj"], tasks=m["tasks"],
            sw_calls=m["sw_calls"], hw_calls=m["hw_calls"],
            reconfigurations=m["reconfigurations"],
            offered=d["offered"], admitted=d["admitted"],
            completed=d["completed"], batches=d["batches"],
            rate_limited=d["admission_verdicts"].get("rate-limit", 0),
            queue_full=d["admission_verdicts"].get("queue-full", 0),
            flushes_full=d["flushes_full"], flushes_timeout=d["flushes_timeout"],
            autoscaler_loads=d["autoscaler"]["loads"],
            within_slo=sum(within.values()),
            top_p99_ns=d["tenants"][tenants[0].name]["latency_ns"]["p99"],
            rung=item.rung,
            # the spec's rates are already this rung's offered rates
            rate_krps=sum(t.rate_rps for t in tenants) / 1e3,
            slo_met=all(
                within[name] >= SLO_SHARE * t["offered"]
                for name, t in d["tenants"].items()
            ),
        )
    elif item.kind == "chaos":
        base, run = report.baseline, report.chaos
        s.update(
            work=base.tasks + run.tasks, makespan_ns=run.makespan_ns,
            energy_pj=run.energy_pj, tasks=run.tasks,
            sw_calls=run.sw_calls, hw_calls=run.hw_calls,
            reconfigurations=run.reconfigurations,
            slowdown=report.slowdown,
            faults_injected=report.faults_injected,
            tasks_retried=run.tasks_retried,
            detection_ns=run.mean_detection_ns,
            recovery_ns=run.mean_recovery_ns,
            work_lost_ns=run.work_lost_ns,
        )
    elif item.kind == "ckpt":
        d = report.to_dict()
        # the restored incarnation starts when the crashed one is abandoned
        done_ns = report.abandoned_ns + report.restored_makespan_ns
        s.update(
            work=(report.baseline_tasks + report.tasks_checkpointed
                  + d["restore"]["tasks_replayed"]),
            makespan_ns=done_ns,
            slowdown=done_ns / report.baseline_makespan_ns,
            faults_injected=1,
            tasks_replayed=d["restore"]["tasks_replayed"],
            lost_window_ns=report.lost_window_ns,
        )
    else:
        nodes = report["nodes"].values()
        if item.kind == "shard-jobs":
            machines = [n["machine"] for n in nodes]
            s.update(work=report["tasks"], makespan_ns=report["makespan_ns"],
                     energy_pj=report["energy_pj"])
        else:
            machines = [n["serving"]["machine"] for n in nodes]
            s.update(work=report["batches"], makespan_ns=report["horizon_ns"],
                     energy_pj=sum(m["energy_pj"] for m in machines))
        s.update(
            tasks=s["work"],
            sw_calls=sum(m["sw_calls"] for m in machines),
            hw_calls=sum(m["hw_calls"] for m in machines),
            reconfigurations=sum(m["reconfigurations"] for m in machines),
            partitions=item.partitions,
            windows=report["sync"]["windows"],
            messages=report["sync"]["messages"],
            events=report["sync"]["events"],
        )
    return s


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _sum(rows: List[Dict[str, Any]], key: str) -> float:
    return sum(r.get(key, 0) for r in rows)


def sim_metrics(summaries: List[Dict[str, Any]]) -> Dict[str, float]:
    """Simulated metrics over one run of each of a run's fixed inputs.

    Deterministic for a seed: the input set does not depend on how fast
    the host is.  A sharded input runs twice with identical reports, so
    only its P=1 run is counted.
    """
    rows = [s for s in summaries if s.get("partitions", 1) == 1]
    out = {
        "sim_makespan_ms": _median([r["makespan_ns"] / 1e6 for r in rows]),
        "sim_energy_mj": _median(
            [r["energy_pj"] / 1e9 for r in rows if "energy_pj" in r]
        ),
    }
    calls = _sum(rows, "sw_calls") + _sum(rows, "hw_calls")
    out.update({
        "runtime.tasks": _sum(rows, "tasks"),
        "runtime.hw_share": _sum(rows, "hw_calls") / calls if calls else 0.0,
        "runtime.job_latency_p99_ms": _median(
            [r["job_p99_ns"] / 1e6 for r in rows if "job_p99_ns" in r]
        ),
        "fabric.reconfigurations": _sum(rows, "reconfigurations"),
    })

    serve = [r for r in rows if r["kind"] == "serve"]
    offered = _sum(serve, "offered")
    flushes = _sum(serve, "flushes_full") + _sum(serve, "flushes_timeout")
    best: Dict[int, float] = {}
    for r in serve:
        best.setdefault(r["group"], 0.0)
        if r["slo_met"]:
            best[r["group"]] = max(best[r["group"]], r["rate_krps"])
    out.update({
        "serving.admitted_frac": _sum(serve, "admitted") / offered if offered else 0.0,
        "serving.shed_rate_limit": _sum(serve, "rate_limited"),
        "serving.shed_queue_full": _sum(serve, "queue_full"),
        "serving.mean_batch_size": (
            _sum(serve, "completed") / _sum(serve, "batches") if serve else 0.0
        ),
        "serving.timeout_flush_frac": (
            _sum(serve, "flushes_timeout") / flushes if flushes else 0.0
        ),
        "serving.autoscaler_loads": _sum(serve, "autoscaler_loads"),
        "serving.sim_p99_us": _median(
            [r["top_p99_ns"] / 1e3 for r in serve if r["rung"] == 1.0]
        ),
        "serving.sim_goodput_frac": (
            _sum(serve, "within_slo") / offered if offered else 0.0
        ),
        "serving.sim_max_rate_krps": _median(list(best.values())),
    })

    chaos = [r for r in rows if r["kind"] == "chaos"]
    ckpt = [r for r in rows if r["kind"] == "ckpt"]

    def mean_us(key: str) -> float:
        return statistics.fmean(r[key] for r in chaos) / 1e3 if chaos else 0.0

    out.update({
        "chaos.faults_injected": _sum(chaos + ckpt, "faults_injected"),
        "chaos.tasks_retried": _sum(chaos, "tasks_retried"),
        "chaos.mean_detection_us": mean_us("detection_ns"),
        "chaos.mean_recovery_us": mean_us("recovery_ns"),
        "chaos.work_lost_us": mean_us("work_lost_ns"),
        "chaos.sim_fault_slowdown": _median([r["slowdown"] for r in chaos + ckpt]),
        "ckpt.tasks_replayed": _sum(ckpt, "tasks_replayed"),
        "ckpt.lost_window_us": (
            statistics.fmean(r["lost_window_ns"] for r in ckpt) / 1e3 if ckpt else 0.0
        ),
        "shard.windows": _sum(rows, "windows"),
        "shard.messages": _sum(rows, "messages"),
        "shard.events": _sum(rows, "events"),
    })
    return {k: float(v) for k, v in out.items()}
