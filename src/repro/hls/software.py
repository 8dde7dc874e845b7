"""Software (CPU) execution cost model for kernels.

The runtime's work-distribution algorithm needs a software baseline for
every accelerated function ("decide whether the function will be executed
in software or in hardware", Section 4.2).  This model prices the same
kernel IR on a Worker's ARM-class core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.hls.ir import Kernel, OpKind
from repro.telemetry.quantiles import fold_sum

#: CPU cycles per operation (superscalar OoO core, cache-resident data)
_CPU_OP_CYCLES: Dict[OpKind, float] = {
    OpKind.ADD: 1.0,
    OpKind.MUL: 1.0,
    OpKind.DIV: 18.0,
    OpKind.SQRT: 16.0,
    OpKind.CMP: 0.5,
    OpKind.LOGIC: 0.5,
    OpKind.EXP: 30.0,  # libm call
}

#: cycles per array access (L1-resident; misses are charged by the memory
#: system during simulation, not here)
_CPU_MEM_CYCLES = 1.5


@dataclass(frozen=True)
class SoftwareCostModel:
    """Prices kernels on one CPU core.

    Defaults model a 2.0 GHz core with 2-wide sustained issue of the
    kernel's arithmetic (an A57/A72-class Worker CPU).
    """

    clock_ghz: float = 2.0
    issue_width: float = 2.0
    energy_per_op_pj: float = 150.0   # CPU op energy dwarfs FPGA op energy
    static_power_mw: float = 750.0    # one busy core

    def __post_init__(self) -> None:
        if self.clock_ghz <= 0 or self.issue_width <= 0:
            raise ValueError("clock and issue width must be positive")

    def cycles_per_iteration(self, kernel: Kernel) -> float:
        return _cpu_cycles(kernel) / self.issue_width

    def latency_ns(self, kernel: Kernel, items: int) -> float:
        """Time for one core to run ``items`` innermost iterations."""
        if items <= 0:
            raise ValueError(f"items must be positive, got {items}")
        return self.cycles_per_iteration(kernel) * items / self.clock_ghz

    def energy_pj(self, kernel: Kernel, items: int) -> float:
        return self.cost(kernel, items)[1]

    def cost(self, kernel: Kernel, items: int) -> Tuple[float, float]:
        """``(latency_ns, energy_pj)`` of one call, the latency priced
        once for both."""
        latency = self.latency_ns(kernel, items)
        dynamic = kernel.ops_per_iteration() * items * self.energy_per_op_pj
        return latency, dynamic + self.static_power_mw * latency


def _cpu_cycles(kernel: Kernel) -> float:
    """Op plus memory cycles of one iteration, before issue-width scaling.

    The software baseline is priced on every scheduling decision, so this
    sits on the dispatch hot path.  It depends only on the kernel and the
    tables above, so it is computed once and kept on the kernel itself
    (frozen, hence ``object.__setattr__``), like ``Kernel.cache_key``:
    it lives and dies with the kernel, and the cost model, which every
    Worker shares, holds no per-kernel state.
    """
    try:
        return kernel._cpu_cycles  # type: ignore[attr-defined]
    except AttributeError:
        op_cycles = fold_sum(
            count * _CPU_OP_CYCLES[kind] for kind, count in kernel.ops.items()
        )
        mem_cycles = (
            fold_sum(a.accesses_per_iter for a in kernel.arrays) * _CPU_MEM_CYCLES
        )
        cycles = op_cycles + mem_cycles
        object.__setattr__(kernel, "_cpu_cycles", cycles)
        return cycles
