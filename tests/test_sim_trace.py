"""Unit tests for the unified tracer: lanes, causal spans, rendering."""

import pytest

from repro.sim import Simulator, Tracer, Timeout, render_timeline, spawn
from repro.telemetry import Telemetry, chrome_trace, validate_chrome_trace, validate_span_tree


def traced_run():
    sim = Simulator()
    tracer = Tracer(sim)

    def worker(lane, start_delay, work):
        yield Timeout(start_delay)
        tracer.begin(lane, "task")
        yield Timeout(work)
        tracer.end(lane, "task")

    spawn(sim, worker("w0", 0.0, 100.0))
    spawn(sim, worker("w1", 50.0, 100.0))
    sim.run()
    return sim, tracer


def test_span_lifecycle():
    sim, tracer = traced_run()
    spans = tracer.closed_spans()
    assert len(spans) == 2
    w0 = next(s for s in spans if s.lane == "w0")
    assert (w0.start, w0.end) == (0.0, 100.0)
    assert w0.duration == 100.0


def test_busy_time_and_utilization():
    sim, tracer = traced_run()
    assert tracer.busy_time("w0") == 100.0
    assert tracer.utilization("w1") == pytest.approx(100.0 / 150.0)


def test_double_begin_rejected():
    sim = Simulator()
    tracer = Tracer(sim)
    tracer.begin("w0", "x")
    with pytest.raises(ValueError):
        tracer.begin("w0", "x")


def test_end_without_begin_rejected():
    tracer = Tracer(Simulator())
    with pytest.raises(ValueError):
        tracer.end("w0", "ghost")


def test_span_context_manager():
    sim = Simulator()
    tracer = Tracer(sim)
    with tracer.span("w0", "block"):
        sim.schedule(10.0, lambda _: None)
        sim.run()
    span = tracer.closed_spans()[0]
    assert span.duration == 10.0


def test_instant_marker():
    tracer = Tracer(Simulator())
    s = tracer.instant("w0", "irq")
    assert s.duration == 0.0


def test_lanes_ordered_by_first_use():
    sim, tracer = traced_run()
    assert tracer.lanes() == ["w0", "w1"]


def test_render_timeline_shape():
    sim, tracer = traced_run()
    text = render_timeline(tracer, width=40)
    lines = text.splitlines()
    assert len(lines) == 3  # header + two lanes
    assert "#" in lines[1] and "#" in lines[2]
    # w1 starts later: its first '#' is to the right of w0's
    assert lines[2].index("#") > lines[1].index("#")


def test_render_empty():
    assert "no closed spans" in render_timeline(Tracer(Simulator()))


def test_chrome_trace_export():
    # the single export path: spans go out through the hub exporter
    sim, tracer = traced_run()
    hub = Telemetry(sim)
    hub.tracer = tracer
    payload = chrome_trace(hub, include_events=False)
    validate_chrome_trace(payload)
    slices = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    assert len(slices) == 2
    thread_names = {
        e["args"]["name"]
        for e in payload["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert thread_names == {"w0", "w1"}


# ----------------------------------------------------------------------
# causal surface
# ----------------------------------------------------------------------
def test_causal_spans_form_a_tree():
    tracer = Tracer(Simulator())
    root = tracer.add("serve.a", "request#0", start=0.0, end=50.0,
                      trace_id=7, kind="request", tenant="a")
    child = tracer.add("serve.a", "batch.wait", start=0.0, end=10.0,
                       trace_id=7, parent=root, kind="batch.wait")
    leaf = tracer.add("node0.w0", "execute", start=10.0, end=50.0,
                      trace_id=7, parent=child, kind="execute")
    assert root.parent_id is None
    assert child.parent_id == root.span_id
    assert leaf.parent_id == child.span_id
    assert tracer.trace_ids() == [7]
    assert len(tracer.trace_spans(7)) == 3
    assert validate_span_tree(tracer.spans) == 1


def test_span_ids_are_emission_ordered():
    tracer = Tracer(Simulator())
    a = tracer.add("l", "a", start=0.0, end=1.0, trace_id=1)
    b = tracer.add("l", "b", start=0.0, end=1.0, trace_id=2)
    assert (a.span_id, b.span_id) == (0, 1)


def test_finish_closes_open_causal_span():
    sim = Simulator()
    tracer = Tracer(sim)
    span = tracer.add("l", "open", start=0.0, trace_id=1)
    tracer.finish(span, end=25.0)
    assert span.duration == 25.0
    assert validate_span_tree(tracer.spans) == 1


def test_validate_rejects_two_roots():
    tracer = Tracer(Simulator())
    tracer.add("l", "r1", start=0.0, end=1.0, trace_id=1)
    tracer.add("l", "r2", start=0.0, end=1.0, trace_id=1)
    with pytest.raises(ValueError, match="2 roots"):
        validate_span_tree(tracer.spans)


def test_validate_rejects_cross_trace_parent():
    tracer = Tracer(Simulator())
    other = tracer.add("l", "root", start=0.0, end=1.0, trace_id=1)
    tracer.add("l", "root", start=0.0, end=2.0, trace_id=2)
    tracer.add("l", "kid", start=0.0, end=1.0, trace_id=2, parent=other)
    with pytest.raises(ValueError, match="outside the trace"):
        validate_span_tree(tracer.spans)


def test_validate_rejects_unclosed_and_backwards_spans():
    tracer = Tracer(Simulator())
    tracer.add("l", "open", start=0.0, trace_id=1)
    with pytest.raises(ValueError, match="never closed"):
        validate_span_tree(tracer.spans)
    tracer2 = Tracer(Simulator())
    tracer2.add("l", "rewind", start=5.0, end=1.0, trace_id=1)
    with pytest.raises(ValueError, match="ends before"):
        validate_span_tree(tracer2.spans)


def test_validate_ignores_plain_lane_spans():
    sim, tracer = traced_run()
    assert validate_span_tree(tracer.spans) == 0
