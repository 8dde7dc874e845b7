"""The per-machine telemetry hub.

One :class:`Telemetry` instance owns all three observability channels
for a simulated machine:

- the **metrics registry** (:class:`~repro.sim.stats.StatRegistry`):
  counters, time-weighted gauges and histograms, shared by
  every layer (interconnect, memory, fabric, runtime),
- the **tracer** (:class:`~repro.telemetry.tracing.Tracer`): begin/end
  spans on per-component lanes plus causal request-span trees,
- the **event log** (:class:`~repro.telemetry.events.EventLog`): typed
  events with simulated timestamps and attributes.

Components never instantiate their own statistics; they are handed the
hub (or attach to it via :mod:`repro.telemetry.wiring`) so one snapshot
or trace export sees the whole machine.

When telemetry is off, components hold ``telemetry = None`` (or the
:data:`NULL` hub, which is falsy) and every instrumentation site reduces
to a single ``is not None`` / truthiness check -- the "near-zero
overhead when disabled" contract.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.sim.engine import Simulator
from repro.sim.stats import Counter, Histogram, StatRegistry, TimeWeighted
from repro.telemetry.tracing import Span, Tracer
from repro.telemetry.events import EventLog, TelemetryEvent

#: A collector polls one component's internal counters into the shared
#: registry.  Called with the hub on every :meth:`Telemetry.collect`.
Collector = Callable[["Telemetry"], None]


class Telemetry:
    """The machine-wide observability hub."""

    enabled = True

    def __init__(
        self,
        sim: Simulator,
        event_capacity: Optional[int] = 100_000,
        trace_sim_events: bool = False,
    ) -> None:
        self.sim = sim
        self.registry = StatRegistry(sim)
        self.tracer = Tracer(sim)
        self.events = EventLog(capacity=event_capacity)
        self.trace_sim_events = trace_sim_events
        self._collectors: List[Tuple[str, Collector]] = []
        self._sim_events = self.registry.counter("sim.events_fired")
        # pre-bound fast path for the per-sim-event kernel hook: one call
        # per fired event, so even one saved attribute walk matters
        self._sim_events_add = self._sim_events.add

    def __bool__(self) -> bool:
        return True

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        return self.registry.counter(name)

    def gauge(self, name: str, initial: float = 0.0) -> TimeWeighted:
        return self.registry.gauge(name, initial)

    def histogram(self, name: str, bin_edges: Optional[List[float]] = None) -> Histogram:
        return self.registry.histogram(name, bin_edges)

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def event(self, kind: str, component: str, **attrs: Any) -> TelemetryEvent:
        ev = TelemetryEvent(ts=self.sim.now, kind=kind, component=component, attrs=attrs)
        self.events.append(ev)
        return ev

    def emitter(self, kind: str, component: str) -> Callable[..., None]:
        """A pre-bound emit callable for one hot instrumentation site.

        The returned function appends a structured event without any
        per-call attribute lookups on the hub (``emit(key=value, ...)``).
        Components grab one emitter per site at wiring time and call it
        on the hot path; with the NULL hub the same accessor hands back a
        shared no-op, so call sites need no enabled-checks at all.
        """
        sim = self.sim
        log = self.events
        append = log._events.append

        def emit(**attrs: Any) -> None:
            append(TelemetryEvent(ts=sim.now, kind=kind, component=component, attrs=attrs))
            log.emitted += 1

        return emit

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def begin(self, lane: str, name: str) -> Span:
        return self.tracer.begin(lane, name)

    def end(self, lane: str, name: str) -> Span:
        return self.tracer.end(lane, name)

    @contextmanager
    def span(self, lane: str, name: str) -> Iterator[Span]:
        with self.tracer.span(lane, name) as s:
            yield s

    # ------------------------------------------------------------------
    # collectors (pull-style metrics from components that keep their own
    # counters -- caches, DRAMs, SMMUs, links, queues)
    # ------------------------------------------------------------------
    def register_collector(self, fn: Collector, name: str = "") -> None:
        self._collectors.append((name or getattr(fn, "__name__", "collector"), fn))

    def collect(self) -> None:
        """Poll every registered collector into the registry."""
        for _, fn in self._collectors:
            fn(self)

    def snapshot(self) -> Dict[str, float]:
        """One flat metrics view of the whole machine, freshly collected."""
        self.collect()
        return self.registry.snapshot()

    # ------------------------------------------------------------------
    # kernel hooks (called by Simulator.step / Process.__init__ when the
    # hub is attached as ``sim.telemetry``)
    # ------------------------------------------------------------------
    def sim_event_fired(self, event: Any) -> None:
        self._sim_events_add(1)
        if self.trace_sim_events:
            cb = event.callback
            self.event(
                "sim.event",
                "sim",
                callback=getattr(cb, "__qualname__", repr(cb)),
                priority=event.priority,
            )

    def process_spawned(self, process: Any) -> None:
        self.registry.counter("sim.processes_spawned").add(1)
        if self.trace_sim_events:
            self.event("sim.process_spawn", "sim", name=process.name)


def _null_emit(**attrs: Any) -> None:
    """Shared no-op emitter handed out by :class:`NullTelemetry`."""
    return None


class NullTelemetry:
    """The disabled hub: same surface as :class:`Telemetry`, all no-ops.

    Falsy, so ``if self.telemetry:`` instrumentation sites skip it, and
    safe to call directly when a component does not bother checking.
    Metric accessors hand out detached throwaway instruments.
    """

    enabled = False

    def __bool__(self) -> bool:
        return False

    def counter(self, name: str) -> Counter:
        return Counter(name)

    def gauge(self, name: str, initial: float = 0.0) -> "_NullGauge":
        return _NullGauge(initial)

    def histogram(self, name: str, bin_edges: Optional[List[float]] = None) -> Histogram:
        return Histogram(list(bin_edges) if bin_edges else [0.0, 1.0], name)

    def event(self, kind: str, component: str, **attrs: Any) -> None:
        return None

    def emitter(self, kind: str, component: str) -> Callable[..., None]:
        return _null_emit

    def begin(self, lane: str, name: str) -> None:
        return None

    def end(self, lane: str, name: str) -> None:
        return None

    @contextmanager
    def span(self, lane: str, name: str) -> Iterator[None]:
        yield None

    def register_collector(self, fn: Collector, name: str = "") -> None:
        return None

    def collect(self) -> None:
        return None

    def snapshot(self) -> Dict[str, float]:
        return {}

    def sim_event_fired(self, event: Any) -> None:
        return None

    def process_spawned(self, process: Any) -> None:
        return None


class _NullGauge:
    """A gauge stand-in with no simulator clock behind it."""

    def __init__(self, initial: float = 0.0) -> None:
        self.value = initial
        self.maximum = initial

    def set(self, value: float) -> None:
        self.value = value
        if value > self.maximum:
            self.maximum = value

    def add(self, delta: float) -> None:
        self.set(self.value + delta)

    def time_average(self) -> float:
        return self.value


#: Shared disabled hub -- pass this (or ``None``) to run dark.
NULL = NullTelemetry()
