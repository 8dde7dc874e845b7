"""The discrete-event simulation core: clock, event queue, event loop."""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

#: Compact the queues when at least this many cancelled entries are
#: queued *and* they outnumber the live entries.  Cancelled events
#: otherwise sit in the heap until they surface, costing log-time on
#: every push.
_COMPACT_MIN_CANCELLED = 64

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation kernel."""


class Event:
    """A scheduled callback.

    Events are created through :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at` and can be cancelled before they fire.
    Ordering at equal timestamps is by (priority, insertion sequence), which
    makes every simulation exactly reproducible.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., None],
        args: Tuple[Any, ...],
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        # owning simulator, so cancel() can keep the live-event counter
        # exact; None for detached events (tests constructing raw Events)
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                sim._note_cancelled(self)

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) < (
            other.time, other.priority, other.seq
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time} prio={self.priority} {state}>"


def _wakeup_event(
    time: float, seq: int, pair: Tuple[Callable[[Any], None], Any]
) -> Event:
    """A detached :class:`Event` view of a ``(callback, arg)`` pair, for
    the telemetry hook, the one consumer that needs an :class:`Event`.
    A heap pair's view carries its entry's time and ``seq``; a lane
    pair carries no sequence number, so its view's ``seq`` is -1.
    Pairs always have priority 0."""
    return Event(time, 0, seq, pair[0], (pair[1],))


class Simulator:
    """A deterministic discrete-event simulator.

    Pending events live in two queues.  ``_queue`` is a heap of
    ``(time, priority, seq, item)`` tuples, so its sift compares run in
    C (``seq`` is unique, so the item itself is never compared).
    ``_lane`` is a FIFO of priority-0 entries due at the current instant.
    In both queues an item is an :class:`Event` only when a caller may
    cancel it -- it came from :meth:`schedule` / :meth:`schedule_at`.
    Everything else is a bare ``(callback, arg)`` pair that can never be
    cancelled: process wake-ups queued by :meth:`_soon` on the lane, and
    timeouts and resource holds queued by :meth:`_later`, on the heap
    at priority 0 (or on the lane when due now).

    **Invariant: every lane entry is due at ``now``.**  Entries join the
    lane only when due at the current instant, and the clock only moves
    forward when it fires a heap event later than ``now``, which the
    merge below never picks while the lane holds an entry.  So the next
    entry is the heap head when its ``(time, priority)`` is at most
    ``(now, 0)``, else the lane head.  That merge is exact: a heap entry
    at ``(now, 0)`` was scheduled before the clock reached ``now`` (later
    ones went to the lane), so it precedes every lane entry.  Both rely
    on the clock never passing a pending event, which the event loop
    guarantees.

    One loop, :meth:`_fire`, fires every event; :meth:`run`,
    :meth:`run_window` and :meth:`step` are calls of it with different
    horizons and event limits.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, fired.append, "a")
    >>> _ = sim.schedule(2.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    5.0
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        # (time, priority, seq, Event or (callback, arg) pair)
        self._queue: List[Tuple[float, int, int, Any]] = []
        # Events and (callback, arg) pairs, all due at ``now``
        self._lane: Deque[Any] = deque()
        self._seq: int = 0
        self._running: bool = False
        self._processed: int = 0
        # number of cancelled events still sitting in either queue; keeping
        # it exact makes ``pending`` O(1) and tells us when to compact
        self._cancelled_in_queue: int = 0
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
    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` time units from now."""
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        now = self.now
        time = now + delay
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, callback, args, self)
        if time == now and priority == 0:
            self._lane.append(event)
        else:
            heapq.heappush(self._queue, (time, priority, seq, event))
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if not time >= self.now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at t={time} < now={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, callback, args, self)
        if time == self.now and priority == 0:
            self._lane.append(event)
        else:
            heapq.heappush(self._queue, (time, priority, seq, event))
        return event

    def _soon(self, callback: Callable[[Any], None], arg: Any) -> None:
        """``schedule(0.0, callback, arg)`` without the argument checks or
        the returned handle: the process wake-up path (signals, joins,
        interrupts).  Queued as a bare ``(callback, arg)`` pair on the
        lane; it takes no sequence number, since lane order is FIFO."""
        self._lane.append((callback, arg))

    def _later(self, delay: float, callback: Callable[[Any], None], arg: Any) -> None:
        """``schedule(delay, callback, arg)`` without the argument checks
        or the returned handle: the heap twin of :meth:`_soon`, for waits
        nobody cancels (timeouts, resource holds).  It takes the sequence
        number ``schedule`` would take and queues a bare ``(callback,
        arg)`` pair at priority 0 -- on the lane when due now."""
        now = self.now
        time = now + delay
        seq = self._seq
        self._seq = seq + 1
        if time == now:
            self._lane.append((callback, arg))
        else:
            heapq.heappush(self._queue, (time, 0, seq, (callback, arg)))

    def _soon_each(self, callback: Callable[[Any], None], args: List[Any]) -> None:
        """:meth:`_soon` ``(callback, arg)`` for each of ``args``, in order,
        in one call."""
        self._lane.extend([(callback, arg) for arg in args])

    # ------------------------------------------------------------------
    # cancellation bookkeeping (called by Event.cancel)
    # ------------------------------------------------------------------
    def _note_cancelled(self, event: Event) -> None:
        # An event detached from the queues (already fired/popped) marks
        # itself by clearing ``_sim``, so everything reaching here is
        # still queued.  Pairs are never cancelled.
        self._cancelled_in_queue += 1
        if (
            self._cancelled_in_queue >= _COMPACT_MIN_CANCELLED
            and self._cancelled_in_queue * 2 >= len(self._queue) + len(self._lane)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from both queues, in place, so the event
        loop's local bindings stay valid (event order is total, so the
        re-heapified queue pops in the same order)."""
        heap = self._queue
        heap[:] = [
            entry for entry in heap
            if entry[3].__class__ is tuple or not entry[3].cancelled
        ]
        heapq.heapify(heap)
        lane = self._lane
        live = [
            entry for entry in lane
            if entry.__class__ is tuple or not entry.cancelled
        ]
        lane.clear()
        lane.extend(live)
        self._cancelled_in_queue = 0

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def peek(self) -> Optional[float]:
        """Return the timestamp of the next pending event, or ``None``.

        Discards cancelled queue heads on the way.  A live lane entry is
        due at ``now`` (class invariant), and so is any heap entry that
        would fire before it, so the answer is ``now`` then."""
        lane = self._lane
        while lane:
            entry = lane[0]
            if entry.__class__ is tuple or not entry.cancelled:
                return self.now
            lane.popleft()
            self._cancelled_in_queue -= 1
        heap = self._queue
        while heap:
            entry = heap[0]
            item = entry[3]
            if item.__class__ is tuple or not item.cancelled:
                return entry[0]
            heapq.heappop(heap)
            self._cancelled_in_queue -= 1
        return None

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
        the same timestamp by the normal (time, priority, seq) order --
        it is scheduled before any local event at ``horizon`` exists.
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

        The loop looks at each queue head exactly once per event, and
        merges the heap and the lane inline (see the class docstring).
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant event loop)")
        self._running = True
        fired = 0
        # hot loop: bind everything reached per event to locals
        # (_compact edits both queues in place, so the bindings hold)
        heap = self._queue
        lane = self._lane
        pop = heapq.heappop
        popleft = lane.popleft
        try:
            while True:
                if lane:
                    now = self.now
                    if heap:
                        head = heap[0]
                        time = head[0]
                        # the heap head goes first when its (time,
                        # priority) is at most (now, 0)
                        from_heap = time < now or (time == now and head[1] <= 0)
                    else:
                        from_heap = False
                    if not from_heap:
                        event = lane[0]
                        if event.__class__ is tuple:
                            # a pair on the lane, due at ``now``
                            if now > horizon:
                                break
                            if fired >= limit:
                                horizon = now
                                break
                            popleft()
                            self._processed += 1
                            telemetry = self.telemetry
                            if telemetry is not None:
                                telemetry.sim_event_fired(_wakeup_event(now, -1, event))
                            event[0](event[1])
                            fired += 1
                            continue
                elif heap:
                    head = heap[0]
                    from_heap = True
                else:
                    break
                if from_heap:
                    event = head[3]
                    if event.__class__ is tuple:
                        # a heap pair: live, never cancelled
                        time = head[0]
                        if time > horizon:
                            break
                        if fired >= limit:
                            horizon = time
                            break
                        pop(heap)
                        self.now = time
                        self._processed += 1
                        telemetry = self.telemetry
                        if telemetry is not None:
                            telemetry.sim_event_fired(_wakeup_event(time, head[2], event))
                        event[0](event[1])
                        fired += 1
                        continue
                if event.cancelled:
                    if from_heap:
                        pop(heap)
                    else:
                        popleft()
                    self._cancelled_in_queue -= 1
                    continue
                if event.time > horizon:
                    break
                if fired >= limit:
                    horizon = event.time
                    break
                if from_heap:
                    pop(heap)
                else:
                    popleft()
                event._sim = None
                self.now = event.time
                self._processed += 1
                telemetry = self.telemetry
                if telemetry is not None:
                    telemetry.sim_event_fired(event)
                event.callback(*event.args)
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
        self._cancelled_in_queue = 0

    @property
    def events_processed(self) -> int:
        """Total number of events fired since construction."""
        return self._processed

    @property
    def pending(self) -> int:
        """Number of scheduled, not-yet-cancelled events.  O(1): the
        kernel keeps a live count instead of scanning both queues."""
        return len(self._queue) + len(self._lane) - self._cancelled_in_queue

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator now={self.now} pending={self.pending}>"
