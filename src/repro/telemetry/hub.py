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

When telemetry is off, components hold ``telemetry = None`` and every
instrumentation site reduces to a single ``is not None`` check -- the
"near-zero overhead when disabled" contract.
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
        on the hot path.
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
    def sim_event_fired(self, time: float, callback: Callable[[Any], None]) -> None:
        self._sim_events_add(1)
        if self.trace_sim_events:
            # ``priority`` stays in the record's schema: the trace format
            # and the pinned event-order digests read it, and every
            # event fires at priority 0
            self.event(
                "sim.event",
                "sim",
                callback=getattr(callback, "__qualname__", repr(callback)),
                priority=0,
            )

    def process_spawned(self, process: Any) -> None:
        self.registry.counter("sim.processes_spawned").add(1)
        if self.trace_sim_events:
            self.event("sim.process_spawn", "sim", name=process.name)
