"""The discrete-event simulation core: clock, event queue, event loop."""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation kernel."""


class Simulator:
    """A deterministic discrete-event simulator.

    Every pending event is a ``(callback, arg)`` pair, fired as
    ``callback(arg)``.  Pairs live in two queues.  ``_queue`` is a heap
    of ``(time, seq, pair)`` tuples, so its sift compares run in C
    (``seq`` is unique, so the pair itself is never compared).
    ``_lane`` is a FIFO of the pairs due at the current instant; they
    skip the heap and take no sequence number.  Equal-time events fire
    in insertion order, which makes every simulation exactly
    reproducible.

    **Invariant: every lane entry is due at ``now``.**  Entries join the
    lane only when due at the current instant, and the clock only moves
    forward when it fires a heap entry later than ``now``, which the
    merge below never picks while the lane holds an entry.  So the next
    entry is the heap head when its time is at most ``now``, else the
    lane head.  That merge is exact: a heap entry at ``now`` was
    scheduled before the clock reached ``now`` (later ones went to the
    lane), so it precedes every lane entry.  Both rely on the clock
    never passing a pending event, which the event loop guarantees.

    One loop, :meth:`_fire`, fires every event; :meth:`run`,
    :meth:`run_window` and :meth:`step` are calls of it with different
    horizons and event limits.

    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(5.0, fired.append, "a")
    >>> sim.schedule(2.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    5.0
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        # (time, seq, (callback, arg))
        self._queue: List[Tuple[float, int, Tuple[Callable[[Any], None], Any]]] = []
        # (callback, arg) pairs, all due at ``now``
        self._lane: Deque[Tuple[Callable[[Any], None], Any]] = deque()
        self._seq: int = 0
        self._running: bool = False
        self._processed: int = 0
        # processes spawned here and not yet finished, in spawn order
        # (Process keeps it; read by close())
        self._live: Dict[Any, None] = {}
        # Optional telemetry hub (repro.telemetry).  Left as a plain
        # attribute so the kernel stays dependency-free; when None the
        # only per-event cost is one identity check in the event loop.
        self.telemetry: Optional[Any] = None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[Any], None], arg: Any = None) -> None:
        """Schedule ``callback(arg)`` to fire ``delay`` time units from now."""
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        now = self.now
        time = now + delay
        if time == now:
            self._lane.append((callback, arg))
        else:
            seq = self._seq
            self._seq = seq + 1
            heapq.heappush(self._queue, (time, seq, (callback, arg)))

    def schedule_at(self, time: float, callback: Callable[[Any], None], arg: Any = None) -> None:
        """Schedule ``callback(arg)`` at absolute simulated ``time``."""
        now = self.now
        if not time >= now:  # also rejects NaN
            raise SimulationError(f"cannot schedule at t={time} < now={now}")
        if time == now:
            self._lane.append((callback, arg))
        else:
            seq = self._seq
            self._seq = seq + 1
            heapq.heappush(self._queue, (time, seq, (callback, arg)))

    def _soon(self, callback: Callable[[Any], None], arg: Any) -> None:
        """``schedule(0.0, callback, arg)`` without the argument check:
        the process wake-up path (signals, joins, interrupts)."""
        self._lane.append((callback, arg))

    def _soon_each(self, callback: Callable[[Any], None], args: List[Any]) -> None:
        """:meth:`_soon` ``(callback, arg)`` for each of ``args``, in order,
        in one call."""
        self._lane.extend([(callback, arg) for arg in args])

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def peek(self) -> Optional[float]:
        """Return the timestamp of the next pending event, or ``None``.

        A lane entry is due at ``now`` (class invariant), and so is any
        heap entry that would fire before it, so the answer is ``now``
        then."""
        if self._lane:
            return self.now
        heap = self._queue
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Fire the next event.  Returns ``False`` when the queue is empty."""
        return self._fire(_INF, 1)[0] > 0

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events`` fire.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fired earlier, matching the usual
        "simulate this horizon" semantics -- but never past a pending
        event: a run cut short by ``max_events`` leaves the clock at most
        at the next event's time, so time never runs backwards.
        """
        _, horizon = self._fire(
            _INF if until is None else until,
            _INF if max_events is None else max_events,
        )
        if until is not None and horizon > self.now:
            self.now = horizon

    def run_window(self, horizon: float) -> int:
        """Fire every event with ``time < horizon``; return how many fired.

        The sharded engine's conservative-synchronization primitive: a
        partition advances its node simulators window by window, and the
        window end must be *exclusive* so a cross-partition message
        delivered exactly at ``horizon`` interleaves with local events at
        the same timestamp by the normal (time, insertion) order -- it
        is scheduled before any local event at ``horizon`` exists.
        For floats ``t < horizon`` is ``t <= nextafter(horizon, -inf)``,
        so the window is the event loop's inclusive horizon one float
        lower.  Unlike ``run(until=...)`` the clock is left at the last
        processed event (events may still legally be scheduled inside
        [now, horizon)), which matches the monolithic engine's clock
        trajectory exactly.
        """
        return self._fire(math.nextafter(horizon, -_INF), _INF)[0]

    def _fire(self, horizon: float, limit: float) -> Tuple[int, float]:
        """The event loop behind :meth:`run`, :meth:`run_window` and
        :meth:`step`: fire events with ``time <= horizon``, at most
        ``limit`` of them.  Returns ``(fired, horizon)``; a cut by
        ``limit`` lowers ``horizon`` to the next event's time, so the
        clock can be moved up to it without passing a pending event.

        The loop merges the heap and the lane inline (see the class
        docstring).
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant event loop)")
        self._running = True
        fired = 0
        # hot loop: bind everything reached per event to locals
        heap = self._queue
        lane = self._lane
        pop = heapq.heappop
        popleft = lane.popleft
        try:
            while True:
                if lane and not (heap and heap[0][0] <= self.now):
                    # the lane head, due at ``now``
                    time = self.now
                    if time > horizon:
                        break
                    if fired >= limit:
                        horizon = time
                        break
                    callback, arg = popleft()
                elif heap:
                    time, _, (callback, arg) = heap[0]
                    if time > horizon:
                        break
                    if fired >= limit:
                        horizon = time
                        break
                    pop(heap)
                    self.now = time
                else:
                    break
                self._processed += 1
                telemetry = self.telemetry
                if telemetry is not None:
                    telemetry.sim_event_fired(time, callback)
                callback(arg)
                fired += 1
        finally:
            self._running = False
        return fired, horizon

    def warp_to(self, time: float) -> None:
        """Jump an *idle* simulator's clock forward (checkpoint restore).

        A restored run resumes at the snapshot's simulated time, so the
        replayed timeline lines up with the original one.  Only legal
        before anything is scheduled: pending events would otherwise
        fire "in the past" relative to the warped clock.
        """
        if self._running:
            raise SimulationError("cannot warp a running simulator")
        if not time >= self.now:  # also rejects NaN
            raise SimulationError(
                f"cannot warp backwards (t={time} < now={self.now})"
            )
        if self.peek() is not None:
            raise SimulationError("cannot warp with events pending")
        self.now = time

    def close(self) -> None:
        """Abandon a run that will not be resumed (a paused capture).

        Closes the generator of every process that has not finished, in
        spawn order, then drops every pending event.  A suspended
        process and the signals, resources and queues it waits on form
        reference cycles; ending it frees the whole run by reference
        counting.  Nothing fires: the clock and every counter stay as
        they are.  A finished run has no live process, so closing it
        only empties the queues.
        """
        if self._running:
            raise SimulationError("cannot close a running simulator")
        live = self._live
        while live:
            process = next(iter(live))
            del live[process]
            process._abandon()
        self._queue.clear()
        self._lane.clear()

    @property
    def events_processed(self) -> int:
        """Total number of events fired since construction."""
        return self._processed

    @property
    def pending(self) -> int:
        """Number of scheduled, not-yet-fired events."""
        return len(self._queue) + len(self._lane)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator now={self.now} pending={self.pending}>"
