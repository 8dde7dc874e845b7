"""Accelerator chaining.

"we consider chaining together different accelerator modules for building
longer complex processing pipelines, when needed.  This will
substantially increase the amount of processing that is carried out per
unit of transferred data and will consequently result in substantial
energy savings." (Section 4.3)

:class:`AcceleratorChain` composes loaded modules.  Unchained, every
stage round-trips its data through DRAM (write result, read it back for
the next stage).  Chained, intermediate results stream module-to-module
over the fabric's local interconnect, so DRAM sees exactly one read and
one write regardless of chain length -- the per-byte processing gain the
paper predicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Sequence

from repro.core.worker import Worker
from repro.fabric.module_library import AcceleratorModule
from repro.sim import Timeout
from repro.telemetry.quantiles import fold_sum


@dataclass(frozen=True)
class ChainCost:
    """Analytic cost report for one pass over ``items`` items."""

    latency_ns: float
    dram_bytes: int
    energy_pj: float
    stages: int

    @property
    def ops_per_dram_byte(self) -> float:
        """Processing per unit of transferred data -- the paper's metric."""
        return self.stages / max(1, self.dram_bytes // 1)


class AcceleratorChain:
    """A pipeline of modules resident on one Worker's fabric."""

    #: fabric-local streaming energy (module-to-module, no DRAM)
    ON_FABRIC_PJ_PER_BYTE = 0.2

    def __init__(self, worker: Worker, modules: Sequence[AcceleratorModule]) -> None:
        if not modules:
            raise ValueError("a chain needs at least one module")
        self.worker = worker
        self.modules: List[AcceleratorModule] = list(modules)

    # ------------------------------------------------------------------
    def _stage_latency_ns(self, items: int) -> float:
        return fold_sum(m.latency_ns(items) for m in self.modules)

    def cost_chained(self, items: int, bytes_per_item: int) -> ChainCost:
        """One DRAM read in, one DRAM write out; stages stream on-fabric."""
        if items <= 0 or bytes_per_item <= 0:
            raise ValueError("items and bytes_per_item must be positive")
        data = items * bytes_per_item
        dram_bytes = 2 * data  # in + out, once
        dram_ns = self.worker.dram.timing.row_miss_ns + dram_bytes / self.worker.dram.timing.bandwidth_gbps
        fabric_bytes = (len(self.modules) - 1) * data
        compute_ns = self._stage_latency_ns(items)
        energy = (
            dram_bytes * self.worker.dram.timing.energy_per_byte_pj
            + fabric_bytes * self.ON_FABRIC_PJ_PER_BYTE
            + fold_sum(m.energy_pj(items) for m in self.modules)
        )
        return ChainCost(
            latency_ns=dram_ns + compute_ns,
            dram_bytes=dram_bytes,
            energy_pj=energy,
            stages=len(self.modules),
        )

    def cost_unchained(self, items: int, bytes_per_item: int) -> ChainCost:
        """Every stage round-trips through DRAM (the unchained baseline)."""
        if items <= 0 or bytes_per_item <= 0:
            raise ValueError("items and bytes_per_item must be positive")
        data = items * bytes_per_item
        dram_bytes = 2 * data * len(self.modules)
        dram_ns = len(self.modules) * (
            self.worker.dram.timing.row_miss_ns
            + 2 * data / self.worker.dram.timing.bandwidth_gbps
        )
        compute_ns = self._stage_latency_ns(items)
        energy = dram_bytes * self.worker.dram.timing.energy_per_byte_pj + fold_sum(
            m.energy_pj(items) for m in self.modules
        )
        return ChainCost(
            latency_ns=dram_ns + compute_ns,
            dram_bytes=dram_bytes,
            energy_pj=energy,
            stages=len(self.modules),
        )

    # ------------------------------------------------------------------
    def run_chained(self, items: int, bytes_per_item: int) -> Generator:
        """Simulation process for one chained pass (charges the ledger)."""
        cost = self.cost_chained(items, bytes_per_item)
        yield from self.worker.local_stream(0, 2 * items * bytes_per_item)
        yield Timeout(self._stage_latency_ns(items))
        self.worker.ledger.add(f"{self.worker.name}.fabric", cost.energy_pj)
        return cost
