"""Tests for the unified telemetry subsystem: hub, events, wiring, exporters."""

import json

import pytest

from repro.apps import make_layered_dag
from repro.core import ComputeNode, ComputeNodeParams, FunctionRegistry, Worker
from repro.core.runtime import ExecutionEngine
from repro.hls import saxpy_kernel
from repro.presets import compiled_suite
from repro.sim import Simulator, Timeout, spawn
from repro.telemetry import (
    Telemetry,
    attach_simulator,
    attach_worker,
    chrome_trace,
    chrome_trace_json,
    events_json,
    metrics_snapshot,
    prometheus_text,
    snapshot_csv,
    snapshot_json,
    validate_chrome_trace,
    validate_event,
)
from repro.telemetry.events import EventLog, TelemetryEvent


# ----------------------------------------------------------------------
# hub basics
# ----------------------------------------------------------------------


class TestHub:
    def test_instruments_are_shared(self):
        hub = Telemetry(Simulator())
        assert hub.counter("x") is hub.counter("x")
        assert hub.gauge("g") is hub.gauge("g")
        assert hub.histogram("h") is hub.histogram("h")

    def test_events_carry_sim_time(self):
        sim = Simulator()
        hub = Telemetry(sim)
        sim.schedule(25.0, lambda _: hub.event("k.thing", "comp", n=3))
        sim.run()
        (ev,) = list(hub.events)
        assert ev.ts == 25.0
        assert ev.kind == "k.thing"
        assert ev.attrs == {"n": 3}
        validate_event(ev.to_dict())

    def test_span_context_manager(self):
        sim = Simulator()
        hub = Telemetry(sim)
        with hub.span("lane", "work"):
            sim.schedule(10.0, lambda _: None)
            sim.run()
        (s,) = hub.tracer.closed_spans()
        assert s.duration == 10.0

    def test_collectors_polled_on_snapshot(self):
        hub = Telemetry(Simulator())
        state = {"v": 1.0}
        hub.register_collector(lambda h: h.counter("c").set(state["v"]), name="c")
        assert hub.snapshot()["counter.c"] == 1.0
        state["v"] = 7.0
        assert hub.snapshot()["counter.c"] == 7.0

    def test_event_log_bounded(self):
        log = EventLog(capacity=3)
        for i in range(5):
            log.append(TelemetryEvent(ts=float(i), kind="k", component="c"))
        assert len(log) == 3
        assert log.dropped == 2
        assert [e.ts for e in log] == [2.0, 3.0, 4.0]

    def test_event_select_by_prefix(self):
        log = EventLog()
        log.append(TelemetryEvent(0.0, "a.x", "c1"))
        log.append(TelemetryEvent(1.0, "a.y", "c2"))
        log.append(TelemetryEvent(2.0, "b.x", "c1"))
        assert len(log.select(kind="a")) == 2
        assert len(log.select(component="c1")) == 2
        assert len(log.select(kind="b", component="c1")) == 1


class TestNullHub:
    def test_simulator_defaults_dark(self):
        sim = Simulator()
        assert sim.telemetry is None
        sim.schedule(1.0, lambda _: None)
        sim.run()  # no hub: nothing to observe, nothing crashes


# ----------------------------------------------------------------------
# kernel + component wiring
# ----------------------------------------------------------------------


class TestWiring:
    def test_simulator_counters(self):
        sim = Simulator()
        hub = Telemetry(sim)
        attach_simulator(hub, sim)

        def proc():
            yield Timeout(5.0)
            yield Timeout(5.0)

        spawn(sim, proc())
        sim.run()
        snap = hub.snapshot()
        assert snap["counter.sim.events_processed"] >= 3
        assert snap["counter.sim.events_fired"] >= 3
        assert snap["counter.sim.processes_spawned"] == 1

    def test_worker_counters_routed(self):
        sim = Simulator()
        worker = Worker(sim, 0)
        hub = Telemetry(sim)
        attach_worker(hub, worker)
        spawn(sim, worker.local_stream(0, 4096))
        sim.run()
        snap = hub.snapshot()
        assert snap["counter.worker0.dram.bytes"] == 4096
        assert "counter.worker0.cache.hits" in snap
        assert "counter.worker0.smmu.translations" in snap
        assert "counter.worker0.fabric.reconfigurations" in snap

        # the hub mirrors the component's own counters exactly
        def cpu_work():
            yield from worker.cached_access(0, 256)
            yield from worker.cached_access(0, 256)  # all hits
            yield from worker.run_software(saxpy_kernel(64), 64)

        spawn(sim, cpu_work())
        sim.run()
        snap = hub.snapshot()
        assert worker.cache.stats.hits > 0 and worker.sw_calls == 1
        assert snap["counter.worker0.cache.hits"] == worker.cache.stats.hits
        assert snap["counter.worker0.sw_calls"] == worker.sw_calls


# ----------------------------------------------------------------------
# a full instrumented run, then round-trip every exporter
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def instrumented_run():
    registry, library = compiled_suite(max_variants=1)
    sim = Simulator()
    hub = Telemetry(sim)
    attach_simulator(hub, sim)
    node = ComputeNode(sim, ComputeNodeParams(num_workers=2))
    node.attach_telemetry(hub)
    engine = ExecutionEngine(
        node, registry, library,
        use_daemon=True, daemon_period_ns=100_000.0, telemetry=hub,
    )
    graph = make_layered_dag(
        layers=4, width=6, num_workers=2,
        functions=("saxpy", "stencil5", "montecarlo"), seed=3,
    )
    report = engine.run_graph(graph)
    return hub, report


class TestInstrumentedRun:
    def test_all_four_layers_report_metrics(self, instrumented_run):
        hub, _ = instrumented_run
        snap = metrics_snapshot(hub)
        assert any(".noc." in k for k in snap), "interconnect dark"
        assert any(".dram." in k or ".cache." in k for k in snap), "memory dark"
        assert any(".fabric." in k for k in snap), "fabric dark"
        assert any(".runtime." in k for k in snap), "runtime dark"
        assert any(k.startswith("counter.sim.") for k in snap), "kernel dark"

    def test_metric_kinds_cover_counters_gauges_histograms(self, instrumented_run):
        hub, _ = instrumented_run
        assert hub.registry.counters and hub.registry.gauges and hub.registry.histograms
        lat = [h for n, h in hub.registry.histograms.items() if "transfer_ns" in n]
        assert any(h.count > 0 for h in lat), "no link latency samples"

    def test_scheduler_decisions_logged(self, instrumented_run):
        hub, report = instrumented_run
        decisions = hub.events.select(kind="scheduler.decision")
        assert len(decisions) == report.tasks
        assert {d.attrs["device"] for d in decisions} <= {"sw", "hw"}

    def test_spans_cover_tasks_and_reconfigs(self, instrumented_run):
        hub, report = instrumented_run
        spans = hub.tracer.closed_spans()
        assert len(spans) >= report.tasks
        if report.reconfigurations:
            assert any(s.name.startswith("reconfig:") for s in spans)
            assert len(hub.events.select(kind="fabric.reconfig")) == report.reconfigurations

    def test_chrome_trace_round_trip(self, instrumented_run):
        hub, report = instrumented_run
        payload = json.loads(chrome_trace_json(hub))
        n = validate_chrome_trace(payload)
        assert n == len(payload["traceEvents"])
        slices = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == len(hub.tracer.closed_spans())
        names = {e["args"]["name"] for e in payload["traceEvents"] if e["ph"] == "M" and e["name"] == "thread_name"}
        assert any(lane in names for lane in hub.tracer.lanes())
        instants = [e for e in payload["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == len(hub.events)

    def test_snapshot_json_round_trip(self, instrumented_run):
        hub, _ = instrumented_run
        decoded = json.loads(snapshot_json(hub))
        snap = metrics_snapshot(hub)
        assert set(decoded) == set(snap)
        assert decoded["counter.node0.runtime.history_records"] == snap[
            "counter.node0.runtime.history_records"
        ]

    def test_snapshot_csv_round_trip(self, instrumented_run):
        hub, _ = instrumented_run
        text = snapshot_csv(hub)
        lines = text.strip().splitlines()
        assert lines[0] == "metric,value"
        parsed = dict(line.rsplit(",", 1) for line in lines[1:])
        snap = metrics_snapshot(hub)
        assert set(parsed) == set(snap)
        for k, v in parsed.items():
            assert float(v) == pytest.approx(snap[k])

    def test_prometheus_round_trip(self, instrumented_run):
        hub, _ = instrumented_run
        text = prometheus_text(hub)
        samples = {}
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            samples[name] = float(value)
        # every counter is present under its sanitized name
        for cname, c in hub.registry.counters.items():
            safe = "repro_" + "".join(
                ch if ch.isalnum() or ch == "_" else "_" for ch in cname
            )
            assert samples[safe] == pytest.approx(c.value)
        # histogram buckets are cumulative and end at the total count
        for hname, h in hub.registry.histograms.items():
            safe = "repro_" + "".join(
                ch if ch.isalnum() or ch == "_" else "_" for ch in hname
            )
            inf_key = f'{safe}_bucket{{le="+Inf"}}'
            assert samples[inf_key] == h.count
            assert samples[f"{safe}_count"] == h.count

    def test_events_json_schema_valid(self, instrumented_run):
        hub, _ = instrumented_run
        events = json.loads(events_json(hub))
        assert events
        for e in events:
            validate_event(e)
        assert all(
            events[i]["ts"] <= events[i + 1]["ts"] for i in range(len(events) - 1)
        )


# ----------------------------------------------------------------------
# disabled telemetry changes nothing
# ----------------------------------------------------------------------


class TestDisabledParity:
    def run_once(self, with_hub):
        registry = FunctionRegistry()
        from repro.hls import saxpy_kernel, stencil_kernel

        registry.register(saxpy_kernel(1024))
        registry.register(stencil_kernel(1024))
        sim = Simulator()
        hub = Telemetry(sim) if with_hub else None
        node = ComputeNode(sim, ComputeNodeParams(num_workers=2))
        node.attach_telemetry(hub)
        engine = ExecutionEngine(
            node, registry, use_daemon=False, allow_hardware=False,
            telemetry=hub,
        )
        graph = make_layered_dag(
            layers=4, width=6, num_workers=2, functions=("saxpy", "stencil5"), seed=9
        )
        return engine.run_graph(graph), hub

    def test_results_identical_with_and_without_hub(self):
        dark, _ = self.run_once(False)
        lit, _ = self.run_once(True)
        assert dark.makespan_ns == lit.makespan_ns
        assert dark.energy_pj == lit.energy_pj
        assert dark.device_mix == lit.device_mix

    def test_instrumented_run_same_simulated_results(self):
        dark, _ = self.run_once(False)
        # a live hub traces every task without moving simulated timing
        lit, hub = self.run_once(True)
        assert lit.makespan_ns == dark.makespan_ns
        assert lit.device_mix == dark.device_mix
        assert len(hub.tracer.closed_spans()) == lit.tasks
