"""Transactions that travel on the ECOSCALE interconnect.

The paper's multi-layer interconnect carries four transaction classes
(Section 4.1): "load and store commands, DMA operations, interrupts, and
synchronization between the Workers".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional

_message_ids = itertools.count()


class TransactionType(Enum):
    LOAD = "load"
    STORE = "store"
    DMA = "dma"
    INTERRUPT = "interrupt"
    SYNC = "sync"
    CONFIG = "config"          # partial-reconfiguration bitstream traffic
    MPI = "mpi"                # inter-Compute-Node messages

    @property
    def header_bytes(self) -> int:
        """Protocol overhead per transaction of this class."""
        return _HEADER_BYTES[self._value_]

    @property
    def priority(self) -> int:
        """Arbitration priority: lower is more urgent.

        Synchronization and interrupts overtake bulk DMA -- the reason the
        paper insists DMA-only architectures "are not efficient for small
        data transfers such as messages to synchronize remote threads".
        """
        return _PRIORITY[self._value_]


# Per-class constants keyed by the member's value string: a property
# reads one str-keyed dict instead of hashing the enum member.
_HEADER_BYTES = {
    "load": 16,
    "store": 16,
    "dma": 32,
    "interrupt": 8,
    "sync": 8,
    "config": 32,
    "mpi": 64,
}
_PRIORITY = {
    "interrupt": 0,
    "sync": 0,
    "load": 1,
    "store": 1,
    "mpi": 2,
    "config": 3,
    "dma": 4,
}


@dataclass
class Message:
    """One transaction: source/destination node ids and a payload size."""

    src: int
    dst: int
    size_bytes: int
    kind: TransactionType = TransactionType.DMA
    payload: Any = None
    msg_id: int = field(default_factory=lambda: next(_message_ids))
    issued_at: Optional[float] = None
    delivered_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError(f"negative message size {self.size_bytes}")

    @property
    def wire_bytes(self) -> int:
        """Payload plus protocol header."""
        return self.size_bytes + self.kind.header_bytes

    @property
    def latency(self) -> Optional[float]:
        if self.issued_at is None or self.delivered_at is None:
            return None
        return self.delivered_at - self.issued_at
