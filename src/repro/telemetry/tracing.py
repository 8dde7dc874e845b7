"""The unified tracer: causal spans, lanes, and a text timeline.

Historically the repo carried two span stories -- ``repro.sim.trace``
(flat begin/end lanes with its own Chrome export) and the telemetry
hub's tracer (the same class, re-exported).  This module is the single
home for both, extended with the **causal** dimension request tracing
needs:

- every :class:`Span` belongs to a lane (one lane per Worker,
  accelerator, link, tenant, ...) *and* may carry a ``trace_id`` plus a
  ``parent_id``, so the spans of one request form a tree that can be
  walked, merged across streams, and critical-path-analyzed,
- spans may be opened/closed at explicit simulated timestamps
  (:meth:`Tracer.add`), so a layer that learns stage boundaries only at
  completion time (e.g. the serving gateway discovering a task's
  ``started_at`` when the batch finishes) can still emit an exact tree,
- :func:`validate_span_tree` is the structural contract CI and the
  tests share: per ``trace_id``, exactly one root and every parent link
  resolving inside the same trace, acyclically.

Export stays in :mod:`repro.telemetry.exporters` (``chrome_trace``) --
the one Perfetto path; :func:`render_timeline` remains for quick ASCII
looks.  This module is dependency-free (the simulator is duck-typed via
``sim.now``) so any layer may import it without cycles.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.telemetry.quantiles import fold_sum


@dataclass
class Span:
    """One traced activity interval, optionally part of a causal trace.

    ``trace_id``/``span_id``/``parent_id`` are ``None`` for plain lane
    spans (the legacy begin/end surface).  ``kind`` names the lifecycle
    stage for request spans (``request``, ``admission``, ``batch.wait``,
    ``sched.queue``, ``execute``, ...).
    """

    lane: str
    name: str
    start: float
    end: Optional[float] = None
    trace_id: Optional[int] = None
    span_id: Optional[int] = None
    parent_id: Optional[int] = None
    kind: str = ""
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        """Canonical exportable form (schema-checked by CI)."""
        return {
            "lane": self.lane,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "kind": self.kind,
            "attrs": dict(self.attrs),
        }


class Tracer:
    """Collects spans against one simulator's clock.

    Two surfaces over one span list:

    - the **lane** surface (:meth:`begin`/:meth:`end`/:meth:`span`/
      :meth:`instant`): anonymous activity intervals keyed by
      ``(lane, name)``, what the Worker schedulers and the fabric use,
    - the **causal** surface (:meth:`add`, explicit timestamps +
      ``trace_id``/``parent``): parent-linked request trees emitted by
      the serving layer's request tracer.
    """

    def __init__(self, sim: Any) -> None:
        self.sim = sim
        self.spans: List[Span] = []
        self._open: Dict[Tuple[str, str], Span] = {}
        self._next_span_id = 0

    # ------------------------------------------------------------------
    # lane surface (legacy begin/end keyed by (lane, name))
    # ------------------------------------------------------------------
    def begin(self, lane: str, name: str) -> Span:
        key = (lane, name)
        if key in self._open:
            raise ValueError(f"span {name!r} already open on lane {lane!r}")
        span = Span(lane=lane, name=name, start=self.sim.now)
        self._open[key] = span
        self.spans.append(span)
        return span

    def end(self, lane: str, name: str) -> Span:
        key = (lane, name)
        span = self._open.pop(key, None)
        if span is None:
            raise ValueError(f"no open span {name!r} on lane {lane!r}")
        span.end = self.sim.now
        return span

    @contextmanager
    def span(self, lane: str, name: str) -> Iterator[Span]:
        """Context-manager tracing for plain (non-process) code."""
        span = self.begin(lane, name)
        try:
            yield span
        finally:
            self.end(lane, name)

    def instant(self, lane: str, name: str) -> Span:
        """A zero-duration marker."""
        span = Span(lane=lane, name=name, start=self.sim.now, end=self.sim.now)
        self.spans.append(span)
        return span

    # ------------------------------------------------------------------
    # causal surface (request trees)
    # ------------------------------------------------------------------
    def add(
        self,
        lane: str,
        name: str,
        start: float,
        end: Optional[float] = None,
        trace_id: Optional[int] = None,
        parent: Optional[Span] = None,
        kind: str = "",
        **attrs: Any,
    ) -> Span:
        """Record one causal span at explicit timestamps.

        ``parent=None`` makes this a trace root.  ``end=None`` leaves the
        span open; close it with :meth:`finish`.  Span ids are assigned
        in emission order, so same-seed runs produce identical trees.
        """
        span = Span(
            lane=lane,
            name=name,
            start=start,
            end=end,
            trace_id=trace_id,
            span_id=self._next_span_id,
            parent_id=parent.span_id if parent is not None else None,
            kind=kind,
            attrs=attrs,
        )
        self._next_span_id += 1
        self.spans.append(span)
        return span

    def finish(self, span: Span, end: Optional[float] = None) -> Span:
        """Close a causal span (at ``end``, default the clock's now)."""
        span.end = self.sim.now if end is None else end
        return span

    def trace_ids(self) -> List[int]:
        """Distinct trace ids, in first-emission order."""
        seen: List[int] = []
        marked = set()
        for s in self.spans:
            if s.trace_id is not None and s.trace_id not in marked:
                marked.add(s.trace_id)
                seen.append(s.trace_id)
        return seen

    def trace_spans(self, trace_id: int) -> List[Span]:
        """All spans of one trace, in emission order."""
        return [s for s in self.spans if s.trace_id == trace_id]

    # ------------------------------------------------------------------
    # lane queries
    # ------------------------------------------------------------------
    def lanes(self) -> List[str]:
        seen: List[str] = []
        for s in self.spans:
            if s.lane not in seen:
                seen.append(s.lane)
        return seen

    def closed_spans(self) -> List[Span]:
        return [s for s in self.spans if s.end is not None]

    def busy_time(self, lane: str) -> float:
        return fold_sum(
            s.duration or 0.0 for s in self.closed_spans() if s.lane == lane
        )

    def utilization(self, lane: str, horizon: Optional[float] = None) -> float:
        """Busy fraction of ``lane`` over ``horizon`` time units.

        ``horizon`` must be the observation window the caller means
        (e.g. a run's makespan); ``None`` explicitly selects the full
        simulated time so far (``sim.now``).
        """
        if horizon is None:
            horizon = self.sim.now
        if horizon <= 0:
            return 0.0
        return self.busy_time(lane) / horizon


def validate_span_tree(spans: Sequence[Any]) -> int:
    """Structural check of causal spans; returns the trace count.

    Accepts :class:`Span` objects or their exported dicts.  Per
    ``trace_id``: exactly one root (``parent_id is None``), every
    ``parent_id`` resolves to a span of the *same* trace, parent links
    are acyclic, and every span is closed with ``end >= start``.
    Raises ``ValueError`` on the first violation -- shared by the CI
    trace-smoke job and the structural tests.
    """
    by_trace: Dict[int, Dict[int, Dict[str, Any]]] = {}
    for s in spans:
        d = s if isinstance(s, dict) else s.to_dict()
        tid = d.get("trace_id")
        if tid is None:
            continue                        # plain lane span: not causal
        if d.get("span_id") is None:
            raise ValueError(f"causal span without span_id: {d}")
        if d.get("end") is None:
            raise ValueError(f"span {d['span_id']} of trace {tid} never closed")
        if d["end"] < d["start"]:
            raise ValueError(f"span {d['span_id']} of trace {tid} ends before it starts")
        members = by_trace.setdefault(tid, {})
        if d["span_id"] in members:
            raise ValueError(f"duplicate span_id {d['span_id']} in trace {tid}")
        members[d["span_id"]] = d
    for tid, members in by_trace.items():
        roots = [d for d in members.values() if d.get("parent_id") is None]
        if len(roots) != 1:
            raise ValueError(f"trace {tid} has {len(roots)} roots (want exactly 1)")
        for d in members.values():
            parent = d.get("parent_id")
            if parent is None:
                continue
            if parent not in members:
                raise ValueError(
                    f"span {d['span_id']} of trace {tid} links to parent "
                    f"{parent} outside the trace"
                )
            # climb to the root; a cycle would loop forever without the bound
            hops, cursor = 0, parent
            while cursor is not None:
                hops += 1
                if hops > len(members):
                    raise ValueError(f"parent-link cycle in trace {tid}")
                cursor = members[cursor].get("parent_id")
    return len(by_trace)


def render_timeline(tracer: Tracer, width: int = 72) -> str:
    """An ASCII Gantt chart of all closed spans."""
    spans = tracer.closed_spans()
    if not spans:
        return "(no closed spans)"
    t0 = min(s.start for s in spans)
    t1 = max(s.end for s in spans if s.end is not None)
    horizon = max(t1 - t0, 1e-9)
    lane_width = max(len(l) for l in tracer.lanes())
    lines = [
        f"{'lane'.ljust(lane_width)} | timeline ({t0:.0f} .. {t1:.0f} ns)"
    ]
    for lane in tracer.lanes():
        row = [" "] * width
        for s in spans:
            if s.lane != lane:
                continue
            a = int((s.start - t0) / horizon * (width - 1))
            b = int(((s.end or s.start) - t0) / horizon * (width - 1))
            for i in range(a, max(a, b) + 1):
                row[i] = "#" if row[i] == " " else "%"  # % marks overlap
        lines.append(f"{lane.ljust(lane_width)} | {''.join(row)}")
    return "\n".join(lines)
