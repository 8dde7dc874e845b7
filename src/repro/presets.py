"""Named configuration presets.

Downstream users should not need to hand-assemble WorkerParams /
ComputeNodeParams / MachineParams to get a sensible ECOSCALE machine;
these factories encode the configurations the paper's prototype plans
imply (Zynq-class Workers) and the scaling study uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.compute_node import ComputeNodeParams
from repro.core.machine import MachineParams
from repro.core.worker import FunctionRegistry, WorkerParams
from repro.fabric.module_library import ModuleLibrary
from repro.hls.kernels import (
    cart_split_kernel,
    fir_kernel,
    matmul_kernel,
    montecarlo_kernel,
    saxpy_kernel,
    stencil_kernel,
    vecadd_kernel,
)
from repro.hls.software import SoftwareCostModel
from repro.hls.synthesis import HlsTool, SynthesisConstraints
from repro.memory.cache import CacheGeometry
from repro.memory.dram import DramTiming


def zynq_worker() -> WorkerParams:
    """A Zynq UltraScale+-class Worker: 4xA53-ish cores, modest fabric."""
    return WorkerParams(
        cpu_cores=4,
        software=SoftwareCostModel(clock_ghz=1.5, issue_width=2.0),
        cache=CacheGeometry(size_bytes=1 << 20, line_bytes=64, associativity=16),
        dram=DramTiming(bandwidth_gbps=12.8, capacity_bytes=1 << 30),
        fabric_columns=60,
        fabric_rows=50,
        fabric_regions=2,
    )


def hpc_worker() -> WorkerParams:
    """A beefier future Worker: 8 fast cores, a large fabric, HBM-class
    bandwidth -- the 'integration capabilities of future technologies'."""
    return WorkerParams(
        cpu_cores=8,
        software=SoftwareCostModel(clock_ghz=2.5, issue_width=3.0),
        cache=CacheGeometry(size_bytes=4 << 20, line_bytes=64, associativity=16),
        dram=DramTiming(bandwidth_gbps=64.0, capacity_bytes=4 << 30),
        fabric_columns=120,
        fabric_rows=80,
        fabric_regions=4,
    )


def board_node(workers: int = 4, worker: WorkerParams = None) -> ComputeNodeParams:
    """One board: a handful of Workers on a single-level interconnect."""
    return ComputeNodeParams(
        num_workers=workers, worker=worker or zynq_worker()
    )


def chassis_node(workers: int = 16, fanout: int = 4) -> ComputeNodeParams:
    """A chassis-scale PGAS partition: two interconnect levels inside."""
    return ComputeNodeParams(
        num_workers=workers, worker=zynq_worker(), intra_fanout=fanout
    )


def testbench_machine() -> MachineParams:
    """The small machine the ECOSCALE project's prototype targets."""
    return MachineParams(num_nodes=2, node=board_node())


def petascale_machine() -> MachineParams:
    """A petascale-ish hierarchy: 4 chassis x 16 workers."""
    return MachineParams(
        num_nodes=4, node=chassis_node(), inter_node_fanouts=[4]
    )


def exascale_machine() -> MachineParams:
    """The deepest hierarchy the experiments sweep: 64 nodes, 3 levels."""
    return MachineParams(
        num_nodes=64,
        node=chassis_node(workers=8, fanout=4),
        inter_node_fanouts=[4, 4, 4],
    )


#: Named Compute-Node presets the CLI's runtime commands accept
#: (``python -m repro trace <preset>`` / ``metrics <preset>``).
NODE_PRESETS = {
    "mini": lambda: board_node(workers=2),
    "board": lambda: board_node(),
    "hpc-board": lambda: board_node(worker=hpc_worker()),
    "chassis": lambda: chassis_node(),
}


def node_preset(name: str) -> ComputeNodeParams:
    """Resolve one :data:`NODE_PRESETS` entry by name."""
    if name not in NODE_PRESETS:
        known = ", ".join(sorted(NODE_PRESETS))
        raise KeyError(f"unknown preset {name!r}; choose from: {known}")
    return NODE_PRESETS[name]()


def build_preset_node(sim, name: str, node_id: int = 0):
    """Build the Compute Node for one preset.

    The pure-function parts of bring-up (tile grid, region budget, NUMA
    map, hop table) are computed once per node shape per process and
    shared by every node of that shape; Workers, links, caches and queues
    are always fresh.
    """
    from repro.core import ComputeNode

    return ComputeNode(sim, node_preset(name), node_id=node_id)


@dataclass(frozen=True)
class JobSpec:
    """One tenant job of a multi-job scenario."""

    policy: str                 # repro.core.runtime.POLICIES key
    priority: int = 1
    layers: int = 4
    width: int = 8
    graph_seed: int = 1
    dataflow: bool = False

    def __post_init__(self) -> None:
        if self.priority < 1:
            raise ValueError("priority must be >= 1")
        if self.layers < 1 or self.width < 1:
            raise ValueError("graph dimensions must be positive")


@dataclass(frozen=True)
class JobMix:
    """A named multi-tenant scenario: machine preset + job stream."""

    node: str                   # NODE_PRESETS key
    jobs: Tuple[JobSpec, ...]


#: Named multi-job scenarios ``python -m repro jobs <preset>`` accepts.
#: Every mix runs >= 3 concurrent jobs with distinct policies; ``mini``
#: is the CI smoke configuration.
JOB_PRESETS = {
    "mini": JobMix(
        node="mini",
        jobs=(
            JobSpec("greedy-hw", priority=2, layers=3, width=6, graph_seed=1),
            JobSpec("energy", priority=1, layers=3, width=6, graph_seed=2),
            JobSpec("locality", priority=1, layers=3, width=6, graph_seed=3),
        ),
    ),
    "board": JobMix(
        node="board",
        jobs=(
            JobSpec("greedy-hw", priority=2, graph_seed=1),
            JobSpec("energy", priority=1, graph_seed=2),
            JobSpec("locality", priority=1, graph_seed=3, dataflow=True),
        ),
    ),
    "chassis": JobMix(
        node="chassis",
        jobs=(
            JobSpec("greedy-hw", priority=4, layers=6, width=16, graph_seed=1),
            JobSpec("greedy-hw", priority=1, layers=6, width=16, graph_seed=2),
            JobSpec("energy", priority=2, layers=4, width=12, graph_seed=3),
            JobSpec("locality", priority=1, layers=4, width=12, graph_seed=4),
        ),
    ),
}


def job_preset(name: str) -> JobMix:
    """Resolve one :data:`JOB_PRESETS` entry by name."""
    if name not in JOB_PRESETS:
        known = ", ".join(sorted(JOB_PRESETS))
        raise KeyError(f"unknown job preset {name!r}; choose from: {known}")
    return JOB_PRESETS[name]


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's traffic contract in a serving scenario.

    ``rate_rps`` / ``admit_rate_rps`` are requests per second of
    *simulated* time.  ``arrival`` picks the generator in
    :mod:`repro.serving.arrivals` (poisson | bursty | diurnal | trace).
    """

    name: str
    arrival: str = "poisson"
    rate_rps: float = 100_000.0
    requests: int = 100
    functions: Tuple[str, ...] = ("saxpy",)
    items_range: Tuple[int, int] = (512, 2048)
    policy: str = "greedy-hw"
    priority: int = 1
    slo_ns: float = 500_000.0
    admit_rate_rps: float = 300_000.0
    admit_burst: float = 16.0
    # bursty (MMPP) shape
    burst_multiplier: float = 8.0
    burst_fraction: float = 0.25
    # diurnal ramp shape (multiples of rate_rps)
    diurnal_low: float = 0.3
    diurnal_high: float = 2.0
    # trace replay (absolute offsets from stream start)
    trace_offsets_ns: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.arrival not in ("poisson", "bursty", "diurnal", "trace"):
            raise ValueError(f"unknown arrival kind {self.arrival!r}")
        if self.rate_rps <= 0 or self.admit_rate_rps <= 0:
            raise ValueError("rates must be positive")
        if self.requests < 1 and self.arrival != "trace":
            raise ValueError("a tenant needs at least one request")
        if not self.functions:
            raise ValueError("a tenant needs at least one function")
        if self.priority < 1:
            raise ValueError("priority must be >= 1")
        if self.slo_ns <= 0:
            raise ValueError("slo_ns must be positive")
        lo, hi = self.items_range
        if lo < 1 or hi < lo:
            raise ValueError("items_range must be (lo, hi) with 1 <= lo <= hi")


@dataclass(frozen=True)
class ServingScenario:
    """A named open-loop serving scenario: machine + tenants + knobs."""

    node: str                            # NODE_PRESETS key
    tenants: Tuple[TenantSpec, ...]
    max_batch: int = 8
    max_wait_ns: float = 20_000.0
    max_backlog: int = 48
    autoscaler_period_ns: float = 100_000.0
    scale_up_hotness: float = 6.0
    max_replicas: int = 2
    cooldown_periods: int = 2

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("a scenario needs at least one tenant")
        if len({t.name for t in self.tenants}) != len(self.tenants):
            raise ValueError("tenant names must be unique")


#: Named serving scenarios ``python -m repro serve <preset>`` accepts.
#: ``steady`` is the default configuration; ``flash-crowd`` is the
#: acceptance scenario (bursty interactive tenant over a steady batch
#: tenant); ``diurnal`` ramps demand across a compressed day and replays
#: a fixed trace alongside.
SERVING_PRESETS = {
    "steady": ServingScenario(
        node="mini",
        tenants=(
            TenantSpec(
                name="interactive",
                arrival="poisson",
                rate_rps=150_000.0,
                requests=150,
                functions=("saxpy", "fir32"),
                items_range=(512, 2048),
                policy="greedy-hw",
                priority=2,
                slo_ns=400_000.0,
                admit_rate_rps=450_000.0,
            ),
            TenantSpec(
                name="batch",
                arrival="poisson",
                rate_rps=80_000.0,
                requests=100,
                functions=("stencil5",),
                items_range=(1024, 4096),
                policy="energy",
                priority=1,
                slo_ns=2_000_000.0,
                admit_rate_rps=240_000.0,
            ),
        ),
    ),
    "flash-crowd": ServingScenario(
        node="board",
        tenants=(
            TenantSpec(
                name="interactive",
                arrival="bursty",
                rate_rps=120_000.0,
                requests=260,
                functions=("saxpy", "fir32"),
                items_range=(512, 2048),
                policy="greedy-hw",
                priority=2,
                slo_ns=300_000.0,
                admit_rate_rps=360_000.0,
                admit_burst=24.0,
                burst_multiplier=10.0,
                burst_fraction=0.25,
            ),
            TenantSpec(
                name="analytics",
                arrival="poisson",
                rate_rps=60_000.0,
                requests=120,
                functions=("matmul", "stencil5"),
                items_range=(1024, 4096),
                policy="energy",
                priority=1,
                slo_ns=2_500_000.0,
                admit_rate_rps=180_000.0,
            ),
        ),
        max_backlog=40,
        scale_up_hotness=5.0,
    ),
    "diurnal": ServingScenario(
        node="mini",
        tenants=(
            TenantSpec(
                name="daytime",
                arrival="diurnal",
                rate_rps=100_000.0,
                requests=200,
                functions=("saxpy", "montecarlo"),
                items_range=(512, 2048),
                policy="greedy-hw",
                priority=2,
                slo_ns=600_000.0,
                admit_rate_rps=400_000.0,
                diurnal_low=0.3,
                diurnal_high=2.5,
            ),
            TenantSpec(
                name="cron",
                arrival="trace",
                requests=80,
                functions=("stencil5",),
                items_range=(1024, 2048),
                policy="energy",
                priority=1,
                slo_ns=3_000_000.0,
                admit_rate_rps=200_000.0,
                trace_offsets_ns=tuple(float(i) * 25_000.0 for i in range(80)),
            ),
        ),
    ),
}


def serving_preset(name: str) -> ServingScenario:
    """Resolve one :data:`SERVING_PRESETS` entry by name."""
    if name not in SERVING_PRESETS:
        known = ", ".join(sorted(SERVING_PRESETS))
        raise KeyError(f"unknown serving preset {name!r}; choose from: {known}")
    return SERVING_PRESETS[name]


def standard_kernel_suite() -> List:
    """Every characterized kernel at its default size."""
    return [
        vecadd_kernel(),
        saxpy_kernel(),
        stencil_kernel(),
        matmul_kernel(),
        fir_kernel(),
        montecarlo_kernel(),
        cart_split_kernel(),
    ]


#: process-level cache for :func:`compiled_suite`: max_variants -> list of
#: (module ctor kwargs, bitstream module_name/frames/data).  The HLS flow
#: is pure given the kernel suite, but every experiment gets *fresh*
#: Registry/Library/Bitstream/Module objects so no mutable state is shared
#: across simulations (and bitstream ids keep advancing as before).
_SUITE_CACHE: dict = {}


def _module_blueprint(module) -> Tuple[dict, Tuple[str, int, bytes]]:
    fields = dict(
        name=module.name,
        function=module.function,
        resources=module.resources,
        initiation_interval=module.initiation_interval,
        pipeline_depth=module.pipeline_depth,
        clock_ns=module.clock_ns,
        setup_ns=module.setup_ns,
        energy_per_item_pj=module.energy_per_item_pj,
        static_power_mw=module.static_power_mw,
        parallel_lanes=module.parallel_lanes,
    )
    bits = module.bitstream
    return fields, (bits.module_name, bits.frames, bits.data)


def compiled_suite(max_variants: int = 2) -> Tuple[FunctionRegistry, ModuleLibrary]:
    """Registry + module library for the whole kernel suite (runs the HLS
    flow once per process; reuse across experiments is transparent)."""
    from repro.fabric.bitstream import Bitstream
    from repro.fabric.module_library import AcceleratorModule

    registry = FunctionRegistry()
    for kernel in standard_kernel_suite():
        registry.register(kernel)

    blueprints = _SUITE_CACHE.get(max_variants)
    if blueprints is None:
        library = ModuleLibrary()
        tool = HlsTool()
        blueprints = []
        for kernel in standard_kernel_suite():
            report = tool.compile(
                kernel, library, SynthesisConstraints(max_variants=max_variants)
            )
            # record in add order so rebuilt libraries match exactly
            blueprints.extend(_module_blueprint(m) for m in report.modules)
        _SUITE_CACHE[max_variants] = blueprints
        return registry, library

    library = ModuleLibrary()
    for fields, (module_name, frames, data) in blueprints:
        library.add(
            AcceleratorModule(
                bitstream=Bitstream(module_name=module_name, frames=frames, data=data),
                **fields,
            )
        )
    return registry, library
