"""Tests for request-scoped causal tracing and SLO burn-rate alerting:
the TraceContext propagation gateway -> batcher -> runtime, span-tree
structure, the critical-path analyzer's exact reconciliation, sampling
policy (head + always-on-violation), job-tag provenance through the
engine and chaos retries, Perfetto export of causal spans, and the
multi-window burn-rate alerter's deterministic fire/clear timeline."""

import json

import pytest

from repro.core import ComputeNode
from repro.core.runtime import ExecutionEngine
from repro.presets import (
    ServingScenario,
    TenantSpec,
    compiled_suite,
    node_preset,
    serving_preset,
)
from repro.serving import (
    STAGES,
    BurnRateAlerter,
    BurnRatePolicy,
    CriticalPathAnalyzer,
    ServingGateway,
    TraceConfig,
    run_serving_experiment,
)
from repro.sim import Simulator
from repro.telemetry import Telemetry, chrome_trace, validate_span_tree

US = 1_000.0
MS = 1_000_000.0


def traced_run(
    scenario,
    scenario_name="custom",
    seed=0,
    tracing=None,
    alerts=None,
    hub=False,
    fault_tolerance=None,
    faults=None,
):
    """Hand-wired serving run returning (gateway, report, telemetry)."""
    registry, library = compiled_suite(max_variants=2)
    sim = Simulator()
    telemetry = Telemetry(sim) if hub else None
    node = ComputeNode(sim, node_preset(scenario.node))
    if telemetry is not None:
        node.attach_telemetry(telemetry)
    engine = ExecutionEngine(
        node, registry, library, use_daemon=False, telemetry=telemetry,
        fault_tolerance=fault_tolerance,
    )
    gateway = ServingGateway(
        engine, scenario, seed=seed, scenario_name=scenario_name,
        telemetry=telemetry, tracing=tracing, alerts=alerts,
    )
    if faults:
        from repro.chaos import ChaosController, plan_faults

        controller = ChaosController(sim, seed=seed, telemetry=telemetry)
        plan_faults(controller, engine, faults)
        controller.arm()
    return gateway, gateway.run(), telemetry


# ----------------------------------------------------------------------
# config + analyzer units
# ----------------------------------------------------------------------
class TestTraceConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(sample_every=0)
        with pytest.raises(ValueError):
            TraceConfig(top_k=-1)

    def test_defaults(self):
        cfg = TraceConfig()
        assert cfg.sample_every == 8
        assert cfg.sample_on_violation


class TestCriticalPathAnalyzer:
    def stages(self, **kw):
        base = {s: 0.0 for s in STAGES}
        base.update(kw)
        return base

    def test_breakdown_shares_sum_to_one(self):
        a = CriticalPathAnalyzer()
        a.record("t", "f", 0, self.stages(batch_wait=10.0, execute=30.0),
                 40.0, "head")
        a.record("t", "f", 1, self.stages(batch_wait=20.0, execute=20.0),
                 40.0, "head")
        b = a.breakdown()["t"]
        assert b["latency_total_ns"] == pytest.approx(80.0)
        assert sum(c["share"] for c in b["stages"].values()) == pytest.approx(1.0)
        assert b["stages"]["batch_wait"]["max_ns"] == 20.0
        assert b["stages"]["execute"]["mean_ns"] == pytest.approx(25.0)

    def test_dominant_stage_tie_breaks_earliest(self):
        a = CriticalPathAnalyzer()
        a.record("t", "f", 0, self.stages(batch_wait=5.0, execute=5.0),
                 10.0, "head")
        assert a.top_slowest()[0]["dominant_stage"] == "batch_wait"

    def test_top_slowest_stable_ranking(self):
        a = CriticalPathAnalyzer(top_k=2)
        for rid, lat in ((3, 10.0), (1, 30.0), (2, 30.0), (0, 5.0)):
            a.record("t", "f", rid, self.stages(execute=lat), lat, "head")
        rows = a.top_slowest()
        assert [r["request_id"] for r in rows] == [1, 2]  # ties by id


# ----------------------------------------------------------------------
# burn-rate alerter units
# ----------------------------------------------------------------------
class TestBurnRatePolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            BurnRatePolicy(target=1.0)
        with pytest.raises(ValueError):
            BurnRatePolicy(fast_window_ns=0.0)
        with pytest.raises(ValueError):
            BurnRatePolicy(min_completions=0)
        with pytest.raises(ValueError):
            BurnRatePolicy(slo_scale=0.0)

    def test_budget(self):
        assert BurnRatePolicy(target=0.95).budget == pytest.approx(0.05)


class TestBurnRateAlerter:
    def policy(self):
        return BurnRatePolicy(
            target=0.9, fast_window_ns=100.0, fast_burn=5.0,
            slow_window_ns=1000.0, slow_burn=2.0, min_completions=4,
        )

    def test_fires_and_clears(self):
        a = BurnRateAlerter(self.policy())
        # 4 straight violations: rate 1.0 / budget 0.1 = burn 10 >= 5
        for i in range(4):
            a.observe(float(i), "t", latency_ns=100.0, slo_ns=10.0)
        assert a.is_burning("t", "fast")
        assert a.fired >= 1
        # a run of healthy completions inside the fast window clears it
        for i in range(4, 40):
            a.observe(float(i), "t", latency_ns=1.0, slo_ns=10.0)
        assert not a.is_burning("t", "fast")
        events = [e["event"] for e in a.timeline
                  if e["window"] == "fast"]
        assert events[0] == "fire" and "clear" in events

    def test_needs_min_completions(self):
        a = BurnRateAlerter(self.policy())
        for i in range(3):                       # one short of the floor
            a.observe(float(i), "t", latency_ns=100.0, slo_ns=10.0)
        assert not a.is_burning()

    def test_old_samples_fall_out_of_the_window(self):
        a = BurnRateAlerter(self.policy())
        for i in range(4):
            a.observe(float(i), "t", latency_ns=100.0, slo_ns=10.0)
        # 200 ns later the fast window (100 ns) has forgotten them all
        for i in range(4):
            a.observe(200.0 + i, "t", latency_ns=1.0, slo_ns=10.0)
        assert not a.is_burning("t", "fast")

    def test_slo_scale_tightens_the_objective(self):
        tight = BurnRatePolicy(
            target=0.9, min_completions=1, fast_burn=1.0, slo_scale=0.1,
        )
        a = BurnRateAlerter(tight)
        # latency is within the contractual SLO but past 10% of it
        a.observe(0.0, "t", latency_ns=50.0, slo_ns=100.0)
        assert a.is_burning("t")

    def test_is_burning_filters(self):
        a = BurnRateAlerter(self.policy())
        for i in range(4):
            a.observe(float(i), "t1", latency_ns=100.0, slo_ns=10.0)
        assert a.is_burning("t1")
        assert not a.is_burning("t2")
        assert a.is_burning(window="fast")
        assert ("t1", "fast") in a.active()

    def test_report_block_shape(self):
        a = BurnRateAlerter(self.policy())
        a.observe(0.0, "t", latency_ns=1.0, slo_ns=10.0)
        block = a.report_block()
        assert block["observed"] == 1
        assert block["fired"] == 0
        assert block["policy"]["target"] == 0.9
        assert block["timeline"] == []


# ----------------------------------------------------------------------
# end-to-end traced serving run
# ----------------------------------------------------------------------
class TestTracedServingRun:
    @pytest.fixture(scope="class")
    def run(self):
        return traced_run(
            serving_preset("steady"), scenario_name="steady", seed=0,
            tracing=TraceConfig(sample_every=1),
        )

    def test_every_request_yields_a_complete_span_tree(self, run):
        gateway, report, _ = run
        sink = gateway.request_tracer.tracer
        # structural acceptance: every offered request (sample_every=1)
        # became a well-formed tree -- one root, parents resolve
        # in-trace, no cycles, every span closed
        assert validate_span_tree(sink.spans) == report.offered
        assert report.tracing["sampled_traces"] == report.offered

    def test_completed_trees_have_all_stages(self, run):
        gateway, report, _ = run
        sink = gateway.request_tracer.tracer
        completed = 0
        for tid in sink.trace_ids():
            spans = sink.trace_spans(tid)
            roots = [s for s in spans if s.parent_id is None]
            assert len(roots) == 1
            kinds = {s.kind for s in spans}
            if roots[0].attrs["outcome"] == "completed":
                completed += 1
                assert {"request", "admission", "batch.wait",
                        "sched.queue", "execute"} <= kinds
            else:
                assert kinds == {"request", "admission"}
        assert completed == report.completed

    def test_stage_spans_tile_the_request_exactly(self, run):
        gateway, _, _ = run
        sink = gateway.request_tracer.tracer
        for tid in sink.trace_ids():
            spans = sink.trace_spans(tid)
            root = next(s for s in spans if s.parent_id is None)
            if root.attrs["outcome"] != "completed":
                continue
            stages = {s.kind: s for s in spans if s.parent_id == root.span_id}
            # the three interval stages tile [arrived, completed]: no
            # gaps, no overlap, sum == end-to-end latency
            assert stages["batch.wait"].start == root.start
            assert stages["batch.wait"].end == stages["sched.queue"].start
            assert stages["sched.queue"].end == stages["execute"].start
            assert stages["execute"].end == root.end
            total = sum(stages[k].duration
                        for k in ("batch.wait", "sched.queue", "execute"))
            assert total == pytest.approx(root.duration, rel=1e-9)

    def test_breakdown_reconciles_with_slo_tracker(self, run):
        _, report, _ = run
        # the analyzer's per-tenant latency total must agree with the
        # independently-kept SLOTracker summary (mean * count)
        for tenant, block in report.tracing["breakdown"].items():
            lat = report.tenants[tenant]["latency_ns"]
            assert block["latency_total_ns"] == pytest.approx(
                lat["mean"] * lat["count"], rel=1e-6
            )
            stage_sum = sum(
                c["total_ns"] for c in block["stages"].values()
            )
            assert stage_sum == pytest.approx(
                block["latency_total_ns"], rel=1e-9
            )

    def test_analyzer_covers_every_completion(self, run):
        _, report, _ = run
        tr = report.tracing
        assert tr["requests_analyzed"] == report.completed
        assert tr["sample_every"] == 1
        assert tr["spans"] > 0
        for row in tr["top_slowest"]:
            assert row["dominant_stage"] in STAGES
            assert sum(row["stages"].values()) == pytest.approx(
                row["latency_ns"], rel=1e-9
            )

    def test_tracing_block_is_deterministic(self, run):
        _, report, _ = run
        _, replay, _ = traced_run(
            serving_preset("steady"), scenario_name="steady", seed=0,
            tracing=TraceConfig(sample_every=1),
        )
        assert json.dumps(report.tracing, sort_keys=True) == \
            json.dumps(replay.tracing, sort_keys=True)

    def test_tracing_does_not_perturb_the_run(self, run):
        _, report, _ = run
        plain = run_serving_experiment(preset="steady", seed=0)
        traced = json.loads(report.json())
        traced.pop("tracing")
        assert "alerts" not in traced
        assert json.dumps(traced, sort_keys=True) == plain.json()


class TestSamplingPolicy:
    def test_head_sampling_is_modular(self):
        gateway, report, _ = traced_run(
            serving_preset("steady"), scenario_name="steady", seed=0,
            tracing=TraceConfig(sample_every=8),
        )
        sink = gateway.request_tracer.tracer
        for tid in sink.trace_ids():
            root = next(s for s in sink.trace_spans(tid)
                        if s.parent_id is None)
            if root.attrs["sampled"] == "head":
                assert tid % 8 == 0
        assert 0 < report.tracing["sampled_traces"] < report.offered

    def test_violators_are_always_traced(self):
        # a tenant whose SLO no completion can meet: with 1-in-1000 head
        # sampling nearly every trace must arrive via the violation path
        scenario = ServingScenario(
            node="mini",
            tenants=(
                TenantSpec(name="t", requests=30, rate_rps=100_000.0,
                           slo_ns=1.0),
            ),
        )
        gateway, report, _ = traced_run(
            scenario, tracing=TraceConfig(sample_every=1000),
        )
        tr = report.tracing
        assert tr["violation_upgrades"] == report.completed - 1  # id 0 is head
        assert tr["sampled_traces"] >= report.completed
        sink = gateway.request_tracer.tracer
        hows = {
            next(s for s in sink.trace_spans(tid)
                 if s.parent_id is None).attrs["sampled"]
            for tid in sink.trace_ids()
        }
        assert "slo" in hows

    def test_violation_sampling_can_be_disabled(self):
        scenario = ServingScenario(
            node="mini",
            tenants=(
                TenantSpec(name="t", requests=30, rate_rps=100_000.0,
                           slo_ns=1.0),
            ),
        )
        _, report, _ = traced_run(
            scenario,
            tracing=TraceConfig(sample_every=1000,
                                sample_on_violation=False),
        )
        assert report.tracing["violation_upgrades"] == 0
        # the breakdown still covers everyone: sampling only gates spans
        assert report.tracing["requests_analyzed"] == report.completed


# ----------------------------------------------------------------------
# provenance tags through the engine + chaos
# ----------------------------------------------------------------------
class TestTagPropagation:
    def test_scheduler_events_carry_request_ids(self):
        gateway, report, hub = traced_run(
            serving_preset("steady"), scenario_name="steady", seed=0,
            tracing=TraceConfig(sample_every=4), hub=True,
        )
        decisions = [e for e in hub.events
                     if e.kind == "scheduler.decision"]
        assert decisions
        tagged = [e for e in decisions if e.attrs.get("requests")]
        assert len(tagged) == len(decisions)
        seen = {rid for e in tagged for rid in e.attrs["requests"]}
        batches = [e for e in hub.events if e.kind == "serve.batch"]
        assert batches and all(e.attrs.get("requests") for e in batches)
        from_batches = {rid for e in batches for rid in e.attrs["requests"]}
        assert seen == from_batches          # same requests, both layers

    def test_untraced_events_carry_no_request_tags(self):
        _, _, hub = traced_run(
            serving_preset("steady"), scenario_name="steady", seed=0,
            hub=True,
        )
        decisions = [e for e in hub.events
                     if e.kind == "scheduler.decision"]
        assert decisions
        assert not any("requests" in e.attrs for e in decisions)

    def test_chaos_retry_events_carry_request_ids(self):
        from repro.core.runtime import FaultTolerancePolicy

        gateway, report, hub = traced_run(
            serving_preset("flash-crowd"), scenario_name="flash-crowd",
            seed=7, tracing=TraceConfig(sample_every=1), hub=True,
            fault_tolerance=FaultTolerancePolicy(
                heartbeat_period_ns=10_000.0, miss_threshold=2),
            faults=[{"kind": "crash", "worker": 1, "at_ns": 400_000.0,
                     "downtime_ns": 600_000.0}],
        )
        assert report.machine["tasks_retried"] >= 1
        retries = [e for e in hub.events if e.kind == "runtime.task_retry"]
        assert retries
        assert all(e.attrs.get("requests") for e in retries)
        # the retried requests surface in their span trees too
        retried_ids = {rid for e in retries for rid in e.attrs["requests"]}
        sink = gateway.request_tracer.tracer
        retry_spans = [
            s for tid in sink.trace_ids() for s in sink.trace_spans(tid)
            if s.kind == "retry"
        ]
        assert retry_spans
        assert {s.trace_id for s in retry_spans} <= retried_ids


# ----------------------------------------------------------------------
# Perfetto export of causal spans
# ----------------------------------------------------------------------
class TestPerfettoExport:
    def test_causal_spans_and_process_metadata(self):
        _, _, hub = traced_run(
            serving_preset("steady"), scenario_name="steady", seed=0,
            tracing=TraceConfig(sample_every=8), hub=True,
        )
        trace = chrome_trace(hub, include_events=False)
        events = trace["traceEvents"]
        procs = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert {"serve", "node0"} <= procs
        causal = [e for e in events
                  if e["ph"] == "X" and e.get("cat") == "trace"]
        assert causal
        for e in causal:
            assert "trace_id" in e["args"] and "span_id" in e["args"]
        # runtime lane spans stay in the "sim" category, untagged
        assert any(e.get("cat") == "sim" for e in events
                   if e["ph"] == "X")


# ----------------------------------------------------------------------
# burn-rate alerting end to end
# ----------------------------------------------------------------------
class TestAlertsEndToEnd:
    @pytest.fixture(scope="class")
    def flash(self):
        policy = BurnRatePolicy(slo_scale=0.1)
        return run_serving_experiment(
            preset="flash-crowd", seed=0, alerts=policy,
        )

    def test_alerts_fire_on_the_flash_crowd(self, flash):
        al = flash.alerts
        assert al["fired"] >= 1
        assert al["observed"] == flash.completed
        events = {e["event"] for e in al["timeline"]}
        assert "fire" in events
        for e in al["timeline"]:
            assert e["window"] in ("fast", "slow")
            assert e["burn"] > 0.0

    def test_alert_timeline_replays_identically(self, flash):
        replay = run_serving_experiment(
            preset="flash-crowd", seed=0,
            alerts=BurnRatePolicy(slo_scale=0.1),
        )
        assert json.dumps(flash.alerts, sort_keys=True) == \
            json.dumps(replay.alerts, sort_keys=True)

    def test_alerting_does_not_perturb_the_run(self, flash):
        plain = run_serving_experiment(preset="flash-crowd", seed=0)
        core = json.loads(flash.json())
        core.pop("alerts")
        assert json.dumps(core, sort_keys=True) == plain.json()

    def test_autoscaler_opts_into_alert_pressure(self):
        gateway, _, _ = traced_run(
            serving_preset("steady"), scenario_name="steady", seed=0,
        )

        class Firing:
            def is_burning(self):
                return True

        auto = gateway.autoscaler
        assert not auto._slo_pressure()          # stock steady: no pressure
        auto.alert_source = Firing()
        assert auto._slo_pressure()              # the opt-in hook works
