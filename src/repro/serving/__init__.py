"""The serving layer: open-loop traffic onto the reconfigurable machine.

The ROADMAP's north star is a machine that "serves heavy traffic from
millions of users"; this package is that demand side.  Seed-
deterministic arrival processes emit typed kernel requests, an admission
controller sheds what the machine cannot absorb, a dynamic batcher
coalesces compatible requests into NDRange jobs, an SLO tracker keeps
per-tenant p50/p95/p99 / goodput / shed-rate state, and an autoscaler
closes the paper's Fig. 5 loop -- execution history plus SLO pressure
driving which accelerators occupy the fabric, period by period.

Entry points: :class:`ServingGateway` for hand-wired setups,
:func:`run_serving_experiment` + the ``SERVING_PRESETS`` in
:mod:`repro.presets` for the CLI / CI / test path
(``python -m repro serve --preset flash-crowd --seed 7``).
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "admission": (
        "OK QUEUE_FULL RATE_LIMIT AdmissionController AdmissionVerdict TokenBucket"
    ),
    "alerts": "BurnRateAlerter BurnRatePolicy",
    "arrivals": "ARRIVAL_KINDS arrival_process",
    "autoscaler": "Autoscaler AutoscalerStats",
    "batcher": "DynamicBatcher",
    "brownout": "BROWNOUT BrownoutController BrownoutPolicy",
    "gateway": (
        "ServingGateway ServingReport build_serving_gateway run_serving_experiment"
    ),
    "requests": "Request shape_class",
    "slo": "SLOTracker TenantSLO",
    "tracing": "STAGES CriticalPathAnalyzer RequestTracer TraceConfig TraceContext",
})
