"""A descriptor-based DMA engine.

The paper contrasts UNIMEM's load/store capability with architectures
that "support only DMA operations, which are not efficient for small
data transfers" (Section 4.1).  This model makes that comparison honest:
a DMA transfer pays a fixed descriptor-programming cost and an engine
occupancy (one transfer in flight per channel), but moves bulk data at
full link bandwidth with a single protocol header.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Hashable, List, Optional, Tuple

from repro.interconnect.message import Message, TransactionType
from repro.interconnect.network import Network
from repro.sim import Resource, Simulator, Timeout
from repro.telemetry.quantiles import fold_sum


@dataclass(frozen=True)
class DmaParams:
    """Engine characteristics (AXI DMA-class defaults)."""

    setup_ns: float = 600.0            # descriptor write + doorbell
    completion_irq_ns: float = 150.0   # completion interrupt handling
    channels: int = 2                  # concurrent in-flight transfers
    max_transfer_bytes: int = 1 << 23  # 8 MiB per descriptor

    def __post_init__(self) -> None:
        if self.setup_ns < 0 or self.completion_irq_ns < 0:
            raise ValueError("overheads must be non-negative")
        if self.channels < 1:
            raise ValueError("need at least one channel")
        if self.max_transfer_bytes < 1:
            raise ValueError("max transfer must be positive")


@dataclass
class DmaTransfer:
    """Record of one completed transfer."""

    src: Hashable
    dst: Hashable
    size_bytes: int
    descriptors: int
    issued_at: float
    completed_at: float

    @property
    def latency_ns(self) -> float:
        return self.completed_at - self.issued_at


class DmaEngine:
    """One Worker's DMA engine, moving data over a :class:`Network`."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        params: DmaParams = DmaParams(),
        name: str = "",
    ) -> None:
        self.sim = sim
        self.network = network
        self.params = params
        self.name = name or "dma"
        self._channels = Resource(sim, capacity=params.channels, name=f"{self.name}.ch")
        self.transfers: List[DmaTransfer] = []
        self.bytes_moved = 0

    # ------------------------------------------------------------------
    def descriptors_for(self, size_bytes: int) -> int:
        if size_bytes <= 0:
            raise ValueError(f"transfer size must be positive, got {size_bytes}")
        m = self.params.max_transfer_bytes
        return (size_bytes + m - 1) // m

    def cost_ns(self, src: Hashable, dst: Hashable, size_bytes: int) -> float:
        """Analytic uncontended latency of one transfer."""
        descriptors = self.descriptors_for(size_bytes)
        route = self.network.route(src, dst)
        wire = size_bytes + descriptors * TransactionType.DMA.header_bytes
        return (
            descriptors * self.params.setup_ns
            + route.latency(wire)
            + self.params.completion_irq_ns
        )

    def transfer(self, src: Hashable, dst: Hashable, size_bytes: int) -> Generator:
        """Simulation process: one DMA transfer; returns the record."""
        descriptors = self.descriptors_for(size_bytes)
        issued = self.sim.now
        req = self._channels.request()
        yield req
        try:
            yield Timeout(descriptors * self.params.setup_ns)
            remaining = size_bytes
            while remaining > 0:
                chunk = min(remaining, self.params.max_transfer_bytes)
                msg = Message(src, dst, chunk, TransactionType.DMA)
                yield from self.network.send(msg)
                remaining -= chunk
            yield Timeout(self.params.completion_irq_ns)
        finally:
            self._channels.release(req)
        record = DmaTransfer(
            src=src,
            dst=dst,
            size_bytes=size_bytes,
            descriptors=descriptors,
            issued_at=issued,
            completed_at=self.sim.now,
        )
        self.transfers.append(record)
        self.bytes_moved += size_bytes
        return record

    @property
    def mean_latency_ns(self) -> float:
        if not self.transfers:
            return 0.0
        return fold_sum(t.latency_ns for t in self.transfers) / len(self.transfers)
