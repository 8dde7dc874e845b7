"""Deterministic discrete-event simulation kernel.

Every ECOSCALE hardware model (Workers, interconnects, fabrics, memories)
runs on this kernel.  It provides:

- :class:`Simulator` -- the event loop with a simulated clock,
- :class:`Process` -- generator-based coroutines describing hardware or
  software behaviour over simulated time,
- :class:`Signal` -- one-shot completion events processes can wait on,
- :class:`Resource` / :class:`Store` -- contention points (ports, buses,
  configuration controllers).

It also re-exports the statistics classes of :mod:`repro.sim.stats` and
the tracer of :mod:`repro.telemetry.tracing`.

The kernel is deterministic: events at equal timestamps fire in
insertion order, so simulations are exactly repeatable.
"""

from repro.sim.engine import Simulator, SimulationError
from repro.sim.process import (
    AllOf,
    Interrupt,
    Process,
    Signal,
    Timeout,
    spawn,
)
from repro.sim.resources import PriorityResource, Request, Resource, Store
from repro.sim.stats import (
    Counter,
    Histogram,
    StatRegistry,
    TimeWeighted,
)

# The tracer lives in repro.telemetry.tracing (one span type, one export
# path); re-exported here for compatibility and because lane tracing is
# conceptually part of the kernel's observability surface.  The module
# is stdlib-only, so this import cannot cycle back into repro.sim.
from repro.telemetry.tracing import Span, Tracer, render_timeline

__all__ = [
    "AllOf",
    "Counter",
    "Histogram",
    "Interrupt",
    "PriorityResource",
    "Process",
    "Request",
    "Resource",
    "Signal",
    "Span",
    "SimulationError",
    "Simulator",
    "StatRegistry",
    "Store",
    "TimeWeighted",
    "Timeout",
    "Tracer",
    "render_timeline",
    "spawn",
]
