"""Synchronization over UNIMEM: remote atomics, locks, barriers.

The multi-layer interconnect carries "load and store commands, DMA
operations, interrupts, and synchronization between the Workers"
(Section 4.1), and the paper's case against DMA-only designs is exactly
"small data transfers such as messages to synchronize remote threads".

These primitives are built the way UNIMEM implies: a synchronization
variable lives in *one* Worker's memory (its home); remote Workers
operate on it with small SYNC-class transactions executed at the home
(no caching, no global coherence).  Costs therefore scale with hop
distance to the home -- measurable, and measured in the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Generator, List, Optional, Tuple

from repro.core.compute_node import ComputeNode
from repro.interconnect.message import TransactionType
from repro.sim import Signal, Timeout

#: time the home's near-memory ALU takes for one atomic op
_ATOMIC_ALU_NS = 4.0
#: payload of one atomic request/response
_ATOMIC_BYTES = 16

_cell_ids = itertools.count()


class AtomicCell:
    """A word of memory supporting remote atomic operations.

    The functional value is exact (operations are serialized by the
    simulation's event order at the home); the timing charges the
    round trip over the node's interconnect.
    """

    def __init__(self, node: ComputeNode, home_worker: int, initial: int = 0) -> None:
        if not 0 <= home_worker < len(node):
            raise ValueError(f"no worker {home_worker} in this node")
        self.node = node
        self.home_worker = home_worker
        self.value = initial
        self.cell_id = next(_cell_ids)
        self.operations = 0

    # ------------------------------------------------------------------
    def _round_trip(self, caller: int) -> Generator:
        if caller != self.home_worker:
            yield from self.node.transfer(
                caller, self.home_worker, _ATOMIC_BYTES, TransactionType.SYNC
            )
        yield Timeout(_ATOMIC_ALU_NS)
        if caller != self.home_worker:
            yield from self.node.transfer(
                self.home_worker, caller, _ATOMIC_BYTES, TransactionType.SYNC
            )

    def load(self, caller: int) -> Generator:
        """Atomic read; returns the value."""
        yield from self._round_trip(caller)
        self.operations += 1
        return self.value

    def fetch_add(self, caller: int, delta: int) -> Generator:
        """Atomic add; returns the *previous* value."""
        yield from self._round_trip(caller)
        old, self.value = self.value, self.value + delta
        self.operations += 1
        return old

    def compare_and_swap(self, caller: int, expected: int, desired: int) -> Generator:
        """CAS; returns (success, observed_value)."""
        yield from self._round_trip(caller)
        self.operations += 1
        if self.value == expected:
            self.value = desired
            return True, expected
        return False, self.value

    def store(self, caller: int, value: int) -> Generator:
        yield from self._round_trip(caller)
        self.value = value
        self.operations += 1
        return value


class UnimemLock:
    """A test-and-test-and-set spinlock on an :class:`AtomicCell`.

    Spinning remotely costs real SYNC traffic every probe, so the stats
    expose how contention turns into interconnect load.
    """

    def __init__(
        self,
        node: ComputeNode,
        home_worker: int,
        backoff_ns: float = 50.0,
        max_backoff_ns: float = 3200.0,
    ) -> None:
        if backoff_ns <= 0 or max_backoff_ns < backoff_ns:
            raise ValueError("need 0 < backoff <= max_backoff")
        self.cell = AtomicCell(node, home_worker, initial=0)
        self.backoff_ns = backoff_ns
        self.max_backoff_ns = max_backoff_ns
        self.acquisitions = 0
        self.spins = 0
        self._holder: Optional[int] = None

    @property
    def held(self) -> bool:
        return self._holder is not None

    def acquire(self, caller: int) -> Generator:
        """Spin (with exponential backoff) until the lock is ours."""
        backoff = self.backoff_ns
        while True:
            ok, _ = yield from self.cell.compare_and_swap(caller, 0, 1)
            if ok:
                self._holder = caller
                self.acquisitions += 1
                return self
            self.spins += 1
            yield Timeout(backoff)
            backoff = min(backoff * 2, self.max_backoff_ns)

    def release(self, caller: int) -> Generator:
        if self._holder != caller:
            raise RuntimeError(
                f"worker {caller} releasing a lock held by {self._holder}"
            )
        self._holder = None
        yield from self.cell.store(caller, 0)
        return None


class UnimemBarrier:
    """A sense-reversing centralized barrier.

    Arrivals fetch-add a counter at the home; the last arrival flips the
    sense and wakes everyone (one interrupt-class message per waiter --
    cheaper than remote spinning).
    """

    def __init__(self, node: ComputeNode, home_worker: int, parties: int) -> None:
        if parties < 1:
            raise ValueError("barrier needs at least one party")
        self.node = node
        self.parties = parties
        self.counter = AtomicCell(node, home_worker, initial=0)
        self.generation = 0
        self._waiters: List[Tuple[int, Signal]] = []

    def arrive(self, caller: int) -> Generator:
        """Block until all parties arrived; returns the generation."""
        my_generation = self.generation
        arrived = yield from self.counter.fetch_add(caller, 1)
        if arrived + 1 == self.parties:
            # last arrival: reset and release everyone
            self.counter.value = 0
            self.generation += 1
            waiters, self._waiters = self._waiters, []
            for waiter_id, sig in waiters:
                yield from self.node.transfer(
                    self.counter.home_worker,
                    waiter_id,
                    8,
                    TransactionType.INTERRUPT,
                )
                sig.succeed(self.generation)
            return self.generation
        sig = Signal(self.node.sim)
        self._waiters.append((caller, sig))
        generation = yield sig
        assert my_generation < self.generation
        return generation
