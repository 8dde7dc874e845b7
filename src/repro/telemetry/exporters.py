"""Exporters: Chrome/Perfetto trace JSON, metrics snapshots, Prometheus.

All exporters are pure functions of a :class:`~repro.telemetry.hub.Telemetry`
hub, so any run that carried a hub can be serialized after the fact --
``python -m repro trace`` / ``python -m repro metrics`` are thin CLI
shells over these.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional, Tuple

from repro.telemetry.events import validate_event
from repro.telemetry.hub import Telemetry

# ----------------------------------------------------------------------
# Chrome / Perfetto trace JSON
# ----------------------------------------------------------------------


def chrome_trace(hub: Telemetry, include_events: bool = True) -> Dict[str, Any]:
    """The run as a Chrome ``traceEvents`` document (dict form).

    Spans become complete ("X") slices.  Lanes are grouped into
    Perfetto *processes* by their first dot-segment (``node0.w3`` →
    process ``node0``, thread ``node0.w3``; ``serve.interactive`` →
    process ``serve``), each announced with ``process_name`` /
    ``thread_name`` metadata records so the UI shows human-readable
    names instead of bare ids.  Causal spans carry their ``trace_id`` /
    ``kind`` / attributes in ``args`` so request trees are clickable.
    Structured events become instant ("i") markers on their component's
    lane.  Timestamps convert from simulated ns to trace µs.
    """
    events: List[Dict[str, Any]] = []
    pids: Dict[str, int] = {}
    tids: Dict[str, int] = {}

    def pid_for(prefix: str) -> int:
        if prefix not in pids:
            pids[prefix] = len(pids) + 1
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pids[prefix],
                    "tid": 0,
                    "args": {"name": prefix},
                }
            )
        return pids[prefix]

    def ids_for(lane: str) -> Dict[str, int]:
        if lane not in tids:
            pid = pid_for(lane.split(".", 1)[0])
            tids[lane] = len(tids) + 1
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tids[lane],
                    "args": {"name": lane},
                }
            )
        return {"pid": pid_for(lane.split(".", 1)[0]), "tid": tids[lane]}

    for s in hub.tracer.closed_spans():
        entry: Dict[str, Any] = {
            "name": s.name,
            "cat": "trace" if s.trace_id is not None else "sim",
            "ph": "X",
            "ts": s.start / 1000.0,
            "dur": (s.duration or 0.0) / 1000.0,
            **ids_for(s.lane),
        }
        if s.trace_id is not None:
            entry["args"] = {
                "trace_id": s.trace_id,
                "span_id": s.span_id,
                "parent_id": s.parent_id,
                "kind": s.kind,
                **s.attrs,
            }
        events.append(entry)
    if include_events:
        for e in hub.events:
            events.append(
                {
                    "name": e.kind,
                    "cat": "event",
                    "ph": "i",
                    "s": "t",
                    "ts": e.ts / 1000.0,
                    **ids_for(e.component),
                    "args": dict(e.attrs),
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def chrome_trace_json(hub: Telemetry, include_events: bool = True) -> str:
    return json.dumps(chrome_trace(hub, include_events=include_events))


def validate_chrome_trace(payload: Any) -> int:
    """Structural check of a trace document; returns the event count.

    Accepts the dict form or its JSON string.  Raises ``ValueError`` on
    the first malformed entry -- used by the CI smoke job.
    """
    if isinstance(payload, str):
        payload = json.loads(payload)
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ValueError("trace document must be an object with 'traceEvents'")
    events = payload["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                raise ValueError(f"traceEvents[{i}] missing {key!r}: {ev}")
        if ev["ph"] in ("X", "i") and not isinstance(ev.get("ts"), (int, float)):
            raise ValueError(f"traceEvents[{i}] has no numeric ts: {ev}")
        if ev["ph"] == "X" and ev.get("dur", 0.0) < 0:
            raise ValueError(f"traceEvents[{i}] has negative duration: {ev}")
    return len(events)


# ----------------------------------------------------------------------
# metrics snapshots
# ----------------------------------------------------------------------


def metrics_snapshot(hub: Telemetry) -> Dict[str, float]:
    """One flat ``{metric_name: value}`` view (collects first)."""
    return hub.snapshot()


def snapshot_json(hub: Telemetry, indent: Optional[int] = 2) -> str:
    snap = metrics_snapshot(hub)
    clean = {k: (v if math.isfinite(v) else None) for k, v in snap.items()}
    return json.dumps(clean, indent=indent, sort_keys=True)


def snapshot_csv(hub: Telemetry) -> str:
    lines = ["metric,value"]
    for name, value in sorted(metrics_snapshot(hub).items()):
        if any(c in name for c in ',"\n'):
            name = '"' + name.replace('"', '""') + '"'
        lines.append(f"{name},{value!r}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Prometheus text exposition format
# ----------------------------------------------------------------------


def _prom_name(name: str) -> str:
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if safe and safe[0].isdigit():
        safe = "_" + safe
    return f"repro_{safe}"


def _prom_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def prometheus_text(hub: Telemetry) -> str:
    """The registry in the Prometheus text exposition format.

    Counters keep their monotonic value; gauges expose their current
    value plus a ``_time_avg`` companion; histograms emit cumulative
    ``_bucket`` lines with ``le`` labels (including ``+Inf``).
    """
    hub.collect()
    reg = hub.registry
    lines: List[str] = []

    for name, c in sorted(reg.counters.items()):
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_prom_value(c.value)}")

    for name, g in sorted(reg.gauges.items()):
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prom_value(g.value)}")
        lines.append(f"# TYPE {metric}_time_avg gauge")
        lines.append(f"{metric}_time_avg {_prom_value(g.time_average())}")

    for name, h in sorted(reg.histograms.items()):
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = h.underflow
        for edge, count in zip(h.edges[1:], h.counts):
            cumulative += count
            lines.append(f'{metric}_bucket{{le="{edge}"}} {cumulative}')
        cumulative += h.overflow
        lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{metric}_sum {_prom_value(h.mean * h.count)}")
        lines.append(f"{metric}_count {h.count}")

    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# structured event export
# ----------------------------------------------------------------------


def events_json(hub: Telemetry, indent: Optional[int] = None) -> str:
    """The structured event log as a JSON array (schema-validated)."""
    dicts = hub.events.to_dicts()
    for d in dicts:
        validate_event(d)
    return json.dumps(dicts, indent=indent)


def events_tail(hub: Telemetry, cursor: int = 0) -> Tuple[list, int]:
    """Incremental event export: events emitted since ``cursor``.

    ``cursor`` is the total emitted count from a previous call (start at
    0).  Returns ``(new_event_dicts, next_cursor)``; events that fell
    out of the ring between calls are simply absent, and ``next_cursor``
    always reflects the hub's total so pollers converge.  This is the
    service daemon's ``events`` command: metrics and events stream while
    the simulation runs instead of only at end of run.
    """
    log = hub.events
    total = log.emitted
    if cursor >= total:
        return [], total
    missed = max(0, log.dropped - cursor)
    fresh = total - max(cursor, log.dropped)
    events = list(log)[len(log) - fresh:] if fresh else []
    dicts = [e.to_dict() for e in events]
    if missed:
        # make loss visible rather than silently skipping the gap
        dicts.insert(0, {
            "ts": events[0].ts if events else 0.0,
            "kind": "telemetry.events_lost",
            "component": "telemetry.hub",
            "attrs": {"lost": missed},
        })
    return dicts, total
