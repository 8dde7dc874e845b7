"""Contention points: resources with finite capacity and object stores.

These model the shared hardware of ECOSCALE -- interconnect ports, the
FPGA configuration port, DRAM channels, accelerator slots -- anywhere
requests queue up.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, List, Optional, Tuple

from repro.sim.engine import SimulationError, Simulator
from repro.sim.process import Signal, Timeout, Waitable


class Request(Signal):
    """A pending acquisition of a :class:`Resource` slot.

    ``yield``-able; fires when the slot is granted.  Must be released via
    :meth:`Resource.release` (or use the ``using`` helper pattern in
    process code).
    """

    __slots__ = ("resource", "_t_request")

    def __init__(self, sim: Simulator, resource: "Resource") -> None:
        # Signal's fields, set here rather than through super(): one
        # request is built per resource acquisition
        self.sim = sim
        self._value: Any = None
        self._fired = False
        self._waiters: List[Any] = []
        self.resource = resource
        self._t_request = sim.now


class Resource:
    """A FIFO resource with ``capacity`` identical slots.

    >>> # inside a process:
    >>> # req = bus.request()
    >>> # yield req
    >>> # ... use the bus for some Timeout ...
    >>> # bus.release(req)
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiting: Deque[Request] = deque()
        # statistics
        self.total_requests = 0
        self.total_wait_time = 0.0
        self._busy_time = 0.0
        self._last_change = 0.0

    # ------------------------------------------------------------------
    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Fraction of (slot x time) busy since construction."""
        now = self.sim.now if horizon is None else horizon
        busy = self._busy_time + self._in_use * (now - self._last_change)
        if now <= 0:
            return 0.0
        return busy / (now * self.capacity)

    def _account(self) -> None:
        now = self.sim.now
        self._busy_time += self._in_use * (now - self._last_change)
        self._last_change = now

    # ------------------------------------------------------------------
    def request(self) -> Request:
        self.total_requests += 1
        req = Request(self.sim, self)
        if self._in_use < self.capacity:
            self._account()
            self._in_use += 1
            req.succeed(self)
        else:
            self._waiting.append(req)
        return req

    def release(self, req: Request) -> None:
        if req.resource is not self:
            raise SimulationError("releasing a request of a different resource")
        self._account()
        if self._waiting:
            nxt = self._waiting.popleft()
            self.total_wait_time += self.sim.now - nxt._t_request
            nxt.succeed(self)
            # slot moves straight from req to nxt: _in_use unchanged
        else:
            self._in_use -= 1
            if self._in_use < 0:
                raise SimulationError(f"resource {self.name!r} over-released")

    def use(self, hold: float):
        """Process helper: acquire, hold for ``hold`` time, release.

        Usage inside a process::

            yield from bus.use(cycles)
        """
        req = self.request()
        try:
            yield req
        except BaseException:
            self._abandon(req)
            raise
        try:
            yield Timeout(hold)
        finally:
            self.release(req)

    def _abandon(self, req: Request) -> None:
        """Give up ``req`` after its waiter was interrupted: release the
        slot if it was granted (possibly in the same instant), else take
        the request out of the wait queue."""
        if req.triggered:
            self.release(req)
        else:
            self._waiting.remove(req)

    def use_batch(self, holds):
        """Process helper: one acquire/hold/release cycle per entry of
        ``holds``, resuming the caller once every slot has been released.

        Semantically equivalent to spawning one ``use(holds[i])`` process
        per entry and joining them, but far cheaper: requests are issued
        up front in FIFO order (so grant order under contention matches
        the spawn order of the process-per-chunk version), each grant
        directly schedules its own release, and a single completion
        signal wakes the caller -- ~2 events per chunk instead of ~5.

        Usage inside a process::

            yield from cpu.use_batch([t0, t1, t2])
        """
        holds = [h for h in holds]
        if not holds:
            return
        if not all(hold >= 0 for hold in holds):  # also rejects NaN
            raise SimulationError(f"negative hold in {holds}")
        sim = self.sim
        schedule = sim.schedule
        done = Signal(sim)
        remaining = len(holds)

        def _finish_one(req: Request) -> None:
            nonlocal remaining
            self.release(req)
            remaining -= 1
            if remaining == 0:
                done.succeed(None)

        for hold in holds:
            req = self.request()
            if req.triggered:
                # granted immediately: go straight to the timed release
                schedule(hold, _finish_one, req)
            else:
                req._subscribe(
                    sim,
                    lambda _v, req=req, hold=hold: schedule(hold, _finish_one, req),
                )
        yield done


class PriorityRequest(Request):
    __slots__ = ("priority", "seq")

    def __init__(self, sim: Simulator, resource: "PriorityResource", priority: int, seq: int) -> None:
        # Request's fields set here too, without the super() chain
        self.sim = sim
        self._value: Any = None
        self._fired = False
        self._waiters: List[Any] = []
        self.resource = resource
        self._t_request = sim.now
        self.priority = priority
        self.seq = seq

    def __lt__(self, other: "PriorityRequest") -> bool:
        return (self.priority, self.seq) < (other.priority, other.seq)


class PriorityResource(Resource):
    """A resource whose wait queue is ordered by (priority, FIFO).

    Lower ``priority`` values are served first -- matching interconnect
    QoS semantics where latency-critical traffic (e.g. synchronization
    messages) overtakes bulk DMA.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        super().__init__(sim, capacity, name)
        self._pwaiting: List[PriorityRequest] = []
        self._pseq = 0

    def request(self, priority: int = 0) -> PriorityRequest:  # type: ignore[override]
        self.total_requests += 1
        req = PriorityRequest(self.sim, self, priority, self._pseq)
        self._pseq += 1
        if self._in_use < self.capacity:
            self._account()
            self._in_use += 1
            req.succeed(self)
        else:
            heapq.heappush(self._pwaiting, req)
        return req

    def release(self, req: Request) -> None:  # type: ignore[override]
        if req.resource is not self:
            raise SimulationError("releasing a request of a different resource")
        self._account()
        if self._pwaiting:
            nxt = heapq.heappop(self._pwaiting)
            self.total_wait_time += self.sim.now - nxt._t_request
            nxt.succeed(self)
        else:
            self._in_use -= 1
            if self._in_use < 0:
                raise SimulationError(f"resource {self.name!r} over-released")

    @property
    def queue_length(self) -> int:  # type: ignore[override]
        return len(self._pwaiting)

    def use(self, hold: float, priority: int = 0):
        req = self.request(priority)
        try:
            yield req
        except BaseException:
            self._abandon(req)
            raise
        try:
            yield Timeout(hold)
        finally:
            self.release(req)

    def _abandon(self, req: Request) -> None:
        if req.triggered:
            self.release(req)
        else:
            self._pwaiting.remove(req)
            heapq.heapify(self._pwaiting)


class Store:
    """An unbounded-or-bounded FIFO of Python objects between processes.

    ``put`` and ``get`` return :class:`Signal`-like waitables; a ``get`` on
    an empty store blocks the consumer until a producer puts.  A producer
    that never waits for room uses :meth:`put_nowait`, which builds no
    signal.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None, name: str = "") -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"store capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Signal] = deque()
        self._putters: Deque[Tuple[Signal, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put_nowait(self, item: Any) -> None:
        """:meth:`put` without the put :class:`Signal`, for producers that
        never wait on it; raises when a bounded store is full."""
        if self._getters:
            self._getters.popleft().succeed(item)
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
        else:
            raise SimulationError(f"store {self.name!r} is full")

    def put(self, item: Any) -> Signal:
        sig = Signal(self.sim)
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
            sig.succeed(None)
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            sig.succeed(None)
        else:
            self._putters.append((sig, item))
        return sig

    def drain(self) -> List[Any]:
        """Remove and return every queued item (recovery path: reclaiming
        a dead consumer's backlog).  Blocked putters are admitted into
        the freed space; blocked getters stay blocked."""
        items = list(self._items)
        self._items.clear()
        while self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            psig, pitem = self._putters.popleft()
            self._items.append(pitem)
            psig.succeed(None)
        return items

    def get(self) -> Signal:
        sig = Signal(self.sim)
        if self._items:
            item = self._items.popleft()
            if self._putters:
                psig, pitem = self._putters.popleft()
                self._items.append(pitem)
                psig.succeed(None)
            sig.succeed(item)
        elif self._putters:
            psig, pitem = self._putters.popleft()
            psig.succeed(None)
            sig.succeed(pitem)
        else:
            self._getters.append(sig)
        return sig
