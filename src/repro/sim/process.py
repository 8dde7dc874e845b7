"""Generator-based processes on top of the event loop.

A process is a Python generator that yields *waitables*:

- :class:`Timeout` -- advance simulated time,
- :class:`Signal` -- a one-shot event another process triggers,
- another :class:`Process` -- wait for its completion (its return value is
  delivered as the value of the ``yield``),
- :class:`AllOf` -- a composite wait.

Example::

    def producer(sim, sig):
        yield Timeout(10)
        sig.succeed("payload")

    def consumer(sim, sig):
        value = yield sig
        return value

    sim = Simulator()
    sig = Signal(sim)
    sim.process(producer(sim, sig))   # via the helper in this module
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, List

from repro.sim.engine import SimulationError, Simulator


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Waitable:
    """Base class for things a process may ``yield``."""

    def _subscribe(self, sim: Simulator, callback: Callable[[Any], None]) -> None:
        raise NotImplementedError


class Timeout(Waitable):
    """Wait ``delay`` simulated time units; the yield returns ``value``."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None) -> None:
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"negative timeout: {delay}")
        self.delay = delay
        self.value = value

    def _subscribe(self, sim: Simulator, callback: Callable[[Any], None]) -> None:
        sim.schedule(self.delay, callback, self.value)


class Signal(Waitable):
    """A one-shot event.  Processes wait on it; someone calls :meth:`succeed`.

    A signal that is already succeeded resumes waiters immediately (at the
    current simulated time), so there is no race between "wait then fire"
    and "fire then wait".
    """

    __slots__ = ("sim", "_value", "_fired", "_waiters")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._value: Any = None
        self._fired = False
        self._waiters: List[Callable[[Any], None]] = []

    @property
    def triggered(self) -> bool:
        return self._fired

    @property
    def value(self) -> Any:
        if not self._fired:
            raise SimulationError("signal has not fired yet")
        return self._value

    def succeed(self, value: Any = None) -> "Signal":
        if self._fired:
            raise SimulationError("signal already fired")
        self._fired = True
        self._value = value
        waiters = self._waiters
        if waiters:
            self._waiters = []
            # straight onto the lane, as ``sim._soon`` would queue them
            lane = self.sim._lane
            for waiter in waiters:
                lane.append((waiter, value))
        return self

    def _subscribe(self, sim: Simulator, callback: Callable[[Any], None]) -> None:
        if self._fired:
            sim._lane.append((callback, self._value))  # sim._soon, inlined
        else:
            self._waiters.append(callback)

    def drop_waiters(self) -> None:
        """Forget every waiter without waking it (a run being abandoned:
        its waiters close over the objects that own this signal)."""
        self._waiters = []


class AllOf(Waitable):
    """Wait for every child; yields the list of their values (in order)."""

    def __init__(self, children: Iterable[Waitable]) -> None:
        self.children = list(children)

    def _subscribe(self, sim: Simulator, callback: Callable[[Any], None]) -> None:
        results: List[Any] = [None] * len(self.children)
        remaining = [len(self.children)]
        if not self.children:
            sim._soon(callback, [])
            return

        def make_child_cb(index: int) -> Callable[[Any], None]:
            def child_cb(value: Any) -> None:
                results[index] = value
                remaining[0] -= 1
                if remaining[0] == 0:
                    callback(results)

            return child_cb

        for i, child in enumerate(self.children):
            child._subscribe(sim, make_child_cb(i))


class Process(Waitable):
    """A running generator coroutine.

    Created with ``Process(sim, generator)``; it schedules itself
    immediately.  Other processes can ``yield`` it to join on completion,
    and :meth:`interrupt` throws :class:`Interrupt` into it.
    """

    def __init__(self, sim: Simulator, gen: Generator[Waitable, Any, Any], name: str = "") -> None:
        self.sim = sim
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.done = Signal(sim)
        # generation of the wait in progress: bumped by every delivered
        # Interrupt, -1 once finished.  A wake-up carries the generation
        # it was subscribed under, so one left queued by a wait the
        # process has since abandoned fires as a no-op.
        self._wait_gen = 0
        sim._live[self] = None
        if sim.telemetry is not None:
            sim.telemetry.process_spawned(self)
        sim._soon(self._resume, None)

    # -- Waitable protocol -------------------------------------------------
    def _subscribe(self, sim: Simulator, callback: Callable[[Any], None]) -> None:
        self.done._subscribe(sim, callback)

    # -- lifecycle ---------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self._wait_gen >= 0

    @property
    def value(self) -> Any:
        """The process return value (valid once it has finished)."""
        return self.done.value

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The wait the process was in is abandoned: a process that catches
        the interrupt and yields again is resumed only by its new wait.
        """
        if self._wait_gen < 0:
            return
        self.sim._soon(self._throw, Interrupt(cause))

    def _throw(self, exc: BaseException) -> None:
        if self._wait_gen < 0:
            return
        # the wait in progress is abandoned; its wake-up is now stale
        self._wait_gen += 1
        try:
            item = self.gen.throw(exc)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except Interrupt as uncaught:
            # Uncaught interrupt terminates the process quietly.  Its
            # traceback holds this frame, which holds ``exc``: drop it so
            # the process and its simulator die by reference counting.
            uncaught.__traceback__ = None
            self._finish(None)
            return
        self._wait_on(item)

    def _resume(self, value: Any, gen: int = 0) -> None:
        if gen != self._wait_gen:
            return  # finished, or woken by a wait an Interrupt ended
        try:
            item = self.gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        # an untagged wait subscribes here; _wait_on rejects a
        # non-Waitable and tags the waits that follow an Interrupt
        if gen or not isinstance(item, Waitable):
            self._wait_on(item)
        else:
            item._subscribe(self.sim, self._resume)

    def _wait_on(self, item: Waitable) -> None:
        """Subscribe a wait made after an Interrupt, its wake-up tagged
        with the wait's generation.  Rejects a non-Waitable from any
        wait."""
        if not isinstance(item, Waitable):
            raise SimulationError(
                f"process {self.name!r} yielded {item!r}, which is not a Waitable"
            )
        gen = self._wait_gen

        def wake(value: Any) -> None:
            self._resume(value, gen)

        item._subscribe(self.sim, wake)

    def _finish(self, value: Any) -> None:
        self._wait_gen = -1
        del self.sim._live[self]
        self.done.succeed(value)

    def _abandon(self) -> None:
        """End the process without resuming it (``Simulator.close``):
        its generator is closed where it is suspended, and any wake-up
        still queued for it is stale."""
        self._wait_gen = -1
        self.gen.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "done"
        return f"<Process {self.name} {state}>"


def spawn(sim: Simulator, gen: Generator[Waitable, Any, Any], name: str = "") -> Process:
    """Convenience wrapper: start ``gen`` as a :class:`Process` on ``sim``."""
    return Process(sim, gen, name=name)
