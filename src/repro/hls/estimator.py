"""Resource, timing and energy estimation for a (kernel, config) pair.

The models are the standard first-order ones a scheduler-binder uses:

- **II bound** = max(recurrence bound, memory port bound, 1).
  Recurrence: ``ceil(chain_latency / distance)`` (loop-carried
  dependences cap pipelining).  Memory: each array partition offers two
  BRAM ports; an unrolled body needs ``accesses * unroll`` ports per II.
- **Depth** = sum of the distinct operator latencies on the critical path
  plus memory pipeline stages.
- **Resources** = per-iteration operator mix x unroll x duplicate, plus
  partitioned BRAM, plus pipeline registers.
- **Clock** degrades slowly with datapath width (routing pressure).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.fabric.resources import ResourceVector
from repro.hls.ir import Kernel, OpKind
from repro.hls.transforms import HlsConfig
from repro.telemetry.quantiles import fold_sum


@dataclass(frozen=True)
class OpCost:
    """Hardware cost of one operator instance."""

    resources: ResourceVector
    latency_cycles: int
    energy_pj: float  # per executed operation


#: Calibrated against published Vivado HLS operator characterizations
#: (single-precision float, 7-series class fabric).
OP_COSTS: Dict[OpKind, OpCost] = {
    OpKind.ADD: OpCost(ResourceVector(luts=220, ffs=330), 3, 6.0),
    OpKind.MUL: OpCost(ResourceVector(luts=90, ffs=150, dsps=3), 4, 9.0),
    OpKind.DIV: OpCost(ResourceVector(luts=800, ffs=1200), 16, 60.0),
    OpKind.SQRT: OpCost(ResourceVector(luts=600, ffs=900), 14, 50.0),
    OpKind.CMP: OpCost(ResourceVector(luts=40, ffs=40), 1, 1.0),
    OpKind.LOGIC: OpCost(ResourceVector(luts=30, ffs=30), 1, 0.8),
    OpKind.EXP: OpCost(ResourceVector(luts=1400, ffs=1800, brams=2, dsps=8), 20, 90.0),
}

#: pipeline stages charged for on-chip memory access
_MEM_LATENCY = 2
#: BRAM ports per partition (true dual-port block RAM)
_PORTS_PER_PARTITION = 2
#: base fabric clock period (200 MHz)
_BASE_CLOCK_NS = 5.0
#: 18 Kib BRAM capacity in bytes
_BRAM_BYTES = 2304
#: arrays larger than this cannot be buffered on-chip: they stream from
#: DRAM through the config's ``dram_ports`` AXI masters
ON_CHIP_BYTES_LIMIT = 256 * 1024
#: bytes one 64-bit AXI master moves per fabric cycle
_AXI_BYTES_PER_CYCLE = 8
#: logic cost of one AXI master (address generators, bursting, FIFOs)
_AXI_PORT_RESOURCES = ResourceVector(luts=600, ffs=800, brams=2)
#: extra pipeline stages for the DRAM access path
_DRAM_LATENCY_CYCLES = 12


def _is_streamed(array) -> bool:
    return array.footprint_elems * array.elem_bytes > ON_CHIP_BYTES_LIMIT


@dataclass(frozen=True)
class Estimate:
    """The estimator's verdict for one design point."""

    initiation_interval: int
    pipeline_depth: int
    clock_ns: float
    resources: ResourceVector
    lanes: int
    energy_per_item_pj: float
    static_power_mw: float

    def cycles(self, items: int) -> float:
        """Total fabric cycles to process ``items`` innermost iterations."""
        if items <= 0:
            raise ValueError(f"items must be positive, got {items}")
        per_lane = math.ceil(items / self.lanes)
        return self.pipeline_depth + (per_lane - 1) * self.initiation_interval

    def latency_ns(self, items: int) -> float:
        return self.cycles(items) * self.clock_ns

    def throughput_items_per_us(self) -> float:
        return 1000.0 * self.lanes / (self.initiation_interval * self.clock_ns)


class HlsEstimator:
    """Estimates one (kernel, config) implementation."""

    def __init__(self, op_costs: Dict[OpKind, OpCost] = OP_COSTS) -> None:
        self.op_costs = op_costs
        # (kernel key, config key) -> Estimate.  Every input is immutable
        # and Estimate is frozen, so sharing the result object is safe;
        # design-space exploration re-estimates the same points constantly.
        self._estimate_memo: Dict[tuple, Estimate] = {}

    # ------------------------------------------------------------------
    def initiation_interval(self, kernel: Kernel, config: HlsConfig) -> int:
        if not config.pipeline:
            # sequential loop: a new iteration starts only after the body
            return max(1, self.pipeline_depth(kernel, config))
        ii = 1
        if kernel.recurrence is not None:
            distance, latency = kernel.recurrence
            ii = max(ii, math.ceil(latency / distance))
        streamed_bytes_per_iter = 0.0
        for array in kernel.arrays:
            if _is_streamed(array):
                # off-chip: bandwidth shared by all streamed arrays
                streamed_bytes_per_iter += (
                    array.accesses_per_iter * array.elem_bytes * config.unroll
                )
                continue
            ports_available = _PORTS_PER_PARTITION * config.partition_of(array.name)
            ports_needed = array.accesses_per_iter * config.unroll
            if ports_needed > 0:
                ii = max(ii, math.ceil(ports_needed / ports_available))
        if streamed_bytes_per_iter > 0:
            bandwidth = config.dram_ports * _AXI_BYTES_PER_CYCLE
            ii = max(ii, math.ceil(streamed_bytes_per_iter / bandwidth))
        return ii

    def pipeline_depth(self, kernel: Kernel, config: HlsConfig) -> int:
        depth = _MEM_LATENCY
        if any(_is_streamed(a) for a in kernel.arrays):
            depth += _DRAM_LATENCY_CYCLES
        for kind, count in kernel.ops.items():
            if count > 0:
                depth += self.op_costs[kind].latency_cycles
        # unrolled reductions add a log-depth combine tree
        if config.unroll > 1:
            depth += math.ceil(math.log2(config.unroll))
        return depth

    def clock_ns(self, kernel: Kernel, config: HlsConfig) -> float:
        width = config.unroll * config.duplicate
        return _BASE_CLOCK_NS * (1.0 + 0.015 * (width - 1))

    def resources(self, kernel: Kernel, config: HlsConfig) -> ResourceVector:
        body = ResourceVector()
        for kind, count in kernel.ops.items():
            body = body + self.op_costs[kind].resources * math.ceil(count)
        datapath = body * (config.unroll * config.duplicate)

        brams = 0
        streamed = False
        for array in kernel.arrays:
            if _is_streamed(array):
                streamed = True  # buffered in per-port FIFOs, not BRAM banks
                continue
            pf = config.partition_of(array.name)
            footprint = array.footprint_elems * array.elem_bytes
            banks = pf * config.duplicate
            per_bank = math.ceil(footprint / banks / _BRAM_BYTES)
            brams += banks * max(1, per_bank)

        depth = self.pipeline_depth(kernel, config)
        registers = ResourceVector(ffs=depth * 32 * config.unroll * config.duplicate)
        control = ResourceVector(luts=150, ffs=200)  # FSM + AXI adapters
        total = datapath + ResourceVector(brams=brams) + registers + control
        if streamed:
            total = total + _AXI_PORT_RESOURCES * config.dram_ports
        return total

    # ------------------------------------------------------------------
    def estimate(self, kernel: Kernel, config: HlsConfig) -> Estimate:
        memo_key = (kernel.cache_key(), config.cache_key())
        cached = self._estimate_memo.get(memo_key)
        if cached is not None:
            return cached
        ii = self.initiation_interval(kernel, config)
        depth = self.pipeline_depth(kernel, config)
        clock = self.clock_ns(kernel, config)
        resources = self.resources(kernel, config)
        lanes = config.duplicate * config.unroll

        energy_per_item = fold_sum(
            count * self.op_costs[kind].energy_pj for kind, count in kernel.ops.items()
        )
        # static power scales with occupied area (rough: 0.1 uW per area unit)
        static_mw = 1.0 + resources.area_units() * 1e-4
        result = self._estimate_memo[memo_key] = Estimate(
            initiation_interval=ii,
            pipeline_depth=depth,
            clock_ns=clock,
            resources=resources,
            lanes=lanes,
            energy_per_item_pj=energy_per_item,
            static_power_mw=static_mw,
        )
        return result
