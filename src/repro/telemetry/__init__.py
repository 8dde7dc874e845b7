"""Unified telemetry: metrics registry + tracer + structured events.

The paper's runtime layer is driven entirely by observation ("hardware
performance monitors and function instrumentation" feeding the Execution
History, Section 4.2); this package is the measurement substrate every
layer of the simulated machine shares:

- :class:`Telemetry` -- one hub per machine owning the
  :class:`~repro.sim.stats.StatRegistry`, the
  :class:`~repro.telemetry.tracing.Tracer` and the structured
  :class:`~repro.telemetry.events.EventLog`,
- :mod:`repro.telemetry.tracing` -- the unified span type: lane spans
  for device occupancy plus parent-linked causal spans for request
  traces (:func:`validate_span_tree` is the structural contract),
- :mod:`repro.telemetry.wiring` -- ``attach_*`` helpers that route the
  interconnect, memory, fabric, kernel and runtime layers into one hub,
- :mod:`repro.telemetry.exporters` -- Chrome/Perfetto trace JSON, flat
  JSON/CSV metrics snapshots, Prometheus text, schema-checked event
  dumps.

Telemetry is strictly optional: components default to ``telemetry =
None`` and pay one pointer check when disabled.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "events": "EVENT_SCHEMA EventLog TelemetryEvent validate_event",
    "exporters": (
        "chrome_trace chrome_trace_json events_json events_tail metrics_snapshot "
        "prometheus_text snapshot_csv snapshot_json validate_chrome_trace"
    ),
    "hub": "Telemetry",
    "quantiles": (
        "StreamingQuantile fold_sum histogram_percentile latency_summary mean "
        "percentile"
    ),
    "tracing": "Span Tracer render_timeline validate_span_tree",
    "wiring": (
        "attach_engine attach_fabric attach_link attach_memory attach_network "
        "attach_node attach_simulator attach_worker"
    ),
})
