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
the lane tracer of :mod:`repro.telemetry.tracing`.  Like every package
here it re-exports lazily: importing the kernel loads neither, and
``from repro.sim import Tracer`` loads only the tracer's module.

The kernel is deterministic: events at equal timestamps fire in
insertion order, so simulations are exactly repeatable.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "engine": "Simulator SimulationError",
    "process": "AllOf Interrupt Process Signal Timeout spawn",
    "resources": "PriorityResource Request Resource Store",
    "stats": "Counter Histogram StatRegistry TimeWeighted",
    ".telemetry.tracing": "Span Tracer render_timeline",
})
