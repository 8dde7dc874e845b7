"""Tests for the serving layer: requests, arrivals, admission control,
dynamic batching, SLO tracking, the autoscaler and the end-to-end
gateway (determinism, shedding under a flash crowd, elastic
reconfiguration, and the chaos-overlaid recovery story)."""

from types import SimpleNamespace

import pytest

from repro.presets import SERVING_PRESETS, TenantSpec, serving_preset
from repro.serving import (
    OK,
    QUEUE_FULL,
    RATE_LIMIT,
    AdmissionController,
    DynamicBatcher,
    Request,
    SLOTracker,
    TokenBucket,
    arrival_process,
    run_serving_experiment,
    shape_class,
)
from repro.sim import Simulator, spawn

US = 1_000.0
MS = 1_000_000.0


def make_request(rid=0, tenant="t", function="saxpy", items=100, at=0.0):
    return Request(request_id=rid, tenant=tenant, function=function,
                   items=items, arrived_at=at)


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------
class TestRequests:
    def test_shape_class_is_power_of_two_bucket(self):
        assert shape_class(1) == 1
        assert shape_class(2) == 2
        assert shape_class(3) == 4
        assert shape_class(1024) == 1024
        assert shape_class(1025) == 2048
        with pytest.raises(ValueError):
            shape_class(0)

    def test_batch_key_groups_compatible_requests(self):
        a = make_request(0, items=700)
        b = make_request(1, items=900)       # same 1024 shape class
        c = make_request(2, items=1100)      # 2048 class
        assert a.batch_key == b.batch_key
        assert a.batch_key != c.batch_key

    def test_latency_zero_while_in_flight(self):
        r = make_request(at=10.0)
        assert r.latency_ns == 0.0
        r.completed_at = 150.0
        assert r.latency_ns == 140.0

    def test_items_validated(self):
        with pytest.raises(ValueError):
            make_request(items=0)


# ----------------------------------------------------------------------
# admission
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_deny(self):
        b = TokenBucket(rate_rps=1e6, burst=2)      # 1 token per us
        assert b.try_take(0.0)
        assert b.try_take(0.0)
        assert not b.try_take(0.0)                  # bucket drained

    def test_refills_with_time(self):
        b = TokenBucket(rate_rps=1e6, burst=1)
        assert b.try_take(0.0)
        assert not b.try_take(0.0)
        assert b.try_take(1.0 * US)                 # one us -> one token

    def test_refill_caps_at_burst(self):
        b = TokenBucket(rate_rps=1e6, burst=2)
        b.try_take(0.0)
        b.try_take(0.0)
        # a long quiet spell cannot bank more than `burst` tokens
        assert b.try_take(1.0 * MS)
        assert b.try_take(1.0 * MS)
        assert not b.try_take(1.0 * MS)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(0.0, 1)
        with pytest.raises(ValueError):
            TokenBucket(1.0, 0)


class TestAdmission:
    def make(self, max_backlog=4, rate_rps=1e6, burst=2):
        ac = AdmissionController(max_backlog=max_backlog)
        ac.configure_tenant("t", rate_rps, burst)
        return ac

    def test_admits_within_limits(self):
        ac = self.make()
        v = ac.admit(make_request(), 0.0, backlog=0)
        assert v.accepted and v.reason == OK

    def test_rate_limit_shed(self):
        ac = self.make(burst=1)
        assert ac.admit(make_request(0), 0.0, 0).accepted
        v = ac.admit(make_request(1), 0.0, 0)
        assert not v.accepted and v.reason == RATE_LIMIT

    def test_queue_full_takes_precedence_and_spends_no_token(self):
        ac = self.make(max_backlog=2, burst=1)
        v = ac.admit(make_request(), 0.0, backlog=2)
        assert not v.accepted and v.reason == QUEUE_FULL
        # the token survived the backlog shed
        assert ac.admit(make_request(), 0.0, backlog=0).accepted

    def test_unconfigured_tenant_only_backlog_gated(self):
        ac = AdmissionController(max_backlog=1)
        r = make_request(tenant="ghost")
        assert ac.admit(r, 0.0, 0).accepted
        assert not ac.admit(r, 0.0, 1).accepted

    def test_verdict_counters(self):
        ac = self.make(max_backlog=2, burst=1)
        ac.admit(make_request(), 0.0, 0)            # ok
        ac.admit(make_request(), 0.0, 0)            # rate-limit
        ac.admit(make_request(), 0.0, 2)            # queue-full
        assert ac.verdicts == {OK: 1, RATE_LIMIT: 1, QUEUE_FULL: 1}


# ----------------------------------------------------------------------
# batching
# ----------------------------------------------------------------------
class StubGateway:
    """Just enough gateway for the batcher and arrival tests."""

    def __init__(self, sim):
        self.sim = sim
        self.batches = []
        self.offered = []
        self.finished = []
        self._ids = iter(range(10_000))

    def dispatch_batch(self, key, batch):
        self.batches.append((self.sim.now, key, list(batch)))

    def next_request_id(self):
        return next(self._ids)

    def offer(self, request):
        self.offered.append((self.sim.now, request))

    def arrivals_finished(self, tenant):
        self.finished.append(tenant)


class TestDynamicBatcher:
    def make(self, max_batch=3, max_wait_ns=100.0):
        sim = Simulator()
        gw = StubGateway(sim)
        return sim, gw, DynamicBatcher(gw, max_batch=max_batch,
                                       max_wait_ns=max_wait_ns)

    def test_flush_at_max_batch(self):
        sim, gw, b = self.make()
        for i in range(3):
            b.add(make_request(i))
        assert len(gw.batches) == 1
        assert [r.request_id for r in gw.batches[0][2]] == [0, 1, 2]
        assert b.flushes_full == 1 and b.flushes_timeout == 0
        assert b.pending() == 0

    def test_flush_on_timeout(self):
        sim, gw, b = self.make(max_wait_ns=100.0)
        b.add(make_request(0))
        sim.run()
        assert len(gw.batches) == 1
        assert gw.batches[0][0] == pytest.approx(100.0)   # waited max_wait
        assert b.flushes_timeout == 1

    def test_stale_timer_is_noop(self):
        """A full flush must not be double-flushed by its old timer."""
        sim, gw, b = self.make(max_batch=2, max_wait_ns=100.0)
        b.add(make_request(0))
        b.add(make_request(1))                            # full flush now
        b.add(make_request(2))                            # new bucket
        sim.run()                                         # old timer fires
        assert b.batches_flushed == 2
        assert [len(batch) for _, _, batch in gw.batches] == [2, 1]

    def test_incompatible_requests_do_not_share_batches(self):
        sim, gw, b = self.make(max_batch=2)
        b.add(make_request(0, function="saxpy"))
        b.add(make_request(1, function="fir32"))
        b.add(make_request(2, tenant="other"))
        assert not gw.batches and b.pending() == 3
        b.flush_all()
        assert len(gw.batches) == 3

    def test_batched_at_stamped(self):
        sim, gw, b = self.make()
        b.add(make_request(0))
        b.flush_all()
        assert gw.batches[0][2][0].batched_at == sim.now

    def test_mean_batch_size(self):
        sim, gw, b = self.make(max_batch=2)
        for i in range(4):
            b.add(make_request(i))
        assert b.mean_batch_size == pytest.approx(2.0)


# ----------------------------------------------------------------------
# arrivals
# ----------------------------------------------------------------------
class TestArrivals:
    def run_stream(self, spec, seed=7):
        sim = Simulator()
        gw = StubGateway(sim)
        spawn(sim, arrival_process(gw, spec, seed))
        sim.run()
        return gw

    def test_poisson_count_and_determinism(self):
        spec = TenantSpec(name="t", arrival="poisson", rate_rps=1e6,
                          requests=50)
        a = self.run_stream(spec, seed=7)
        b = self.run_stream(spec, seed=7)
        assert len(a.offered) == 50
        assert a.finished == ["t"]
        assert [(t, r.function, r.items) for t, r in a.offered] == \
               [(t, r.function, r.items) for t, r in b.offered]

    def test_different_seeds_differ(self):
        spec = TenantSpec(name="t", arrival="poisson", rate_rps=1e6,
                          requests=50)
        a = self.run_stream(spec, seed=7)
        b = self.run_stream(spec, seed=8)
        assert [t for t, _ in a.offered] != [t for t, _ in b.offered]

    def test_trace_replay_is_exact(self):
        spec = TenantSpec(name="t", arrival="trace",
                          trace_offsets_ns=(0.0, 10.0, 10.0, 250.0),
                          requests=4)
        gw = self.run_stream(spec)
        assert [t for t, _ in gw.offered] == [0.0, 10.0, 10.0, 250.0]

    def test_bursty_and_diurnal_emit_budget(self):
        for kind in ("bursty", "diurnal"):
            spec = TenantSpec(name="t", arrival=kind, rate_rps=1e6,
                              requests=40)
            assert len(self.run_stream(spec).offered) == 40

    def test_unknown_kind_raises(self):
        spec = TenantSpec.__new__(TenantSpec)   # dodge __post_init__
        object.__setattr__(spec, "name", "t")
        object.__setattr__(spec, "arrival", "fractal")
        sim = Simulator()
        with pytest.raises(KeyError, match="fractal"):
            next(iter(arrival_process(StubGateway(sim), spec, 0)))


# ----------------------------------------------------------------------
# SLO tracking
# ----------------------------------------------------------------------
class TestSLOTracker:
    def test_goodput_counts_only_within_slo(self):
        tr = SLOTracker()
        tr.configure_tenant("t", slo_ns=100.0)
        for rid, latency in enumerate((50.0, 80.0, 300.0)):
            r = make_request(rid, at=0.0)
            tr.note_offered(r)
            tr.note_admitted(r)
            r.completed_at = latency
            tr.note_completed(r)
        t = tr.tenant("t")
        assert t.completed == 3
        assert t.completed_within_slo == 2
        s = t.summary(horizon_ns=1e9)
        assert s["throughput_rps"] == pytest.approx(3.0)
        assert s["goodput_rps"] == pytest.approx(2.0)
        assert s["slo_attainment"] == pytest.approx(2.0 / 3.0)
        assert s["latency_ns"]["count"] == 3.0

    def test_shed_accounting(self):
        tr = SLOTracker()
        tr.configure_tenant("t", slo_ns=100.0)
        for rid in range(4):
            tr.note_offered(make_request(rid))
        tr.note_shed(make_request(0), RATE_LIMIT)
        tr.note_shed(make_request(1), QUEUE_FULL)
        t = tr.tenant("t")
        assert t.shed_total == 2
        assert t.shed_rate == pytest.approx(0.5)
        assert t.summary(1e9)["shed"] == {QUEUE_FULL: 1, RATE_LIMIT: 1}

    def test_observe_rebuilds_from_events(self):
        """The telemetry adapter folds serve.* events into the same
        counters the live gateway hooks produce."""
        live = SLOTracker()
        live.configure_tenant("t", slo_ns=100.0)
        events = []
        for rid, latency in enumerate((40.0, 250.0)):
            r = make_request(rid)
            live.note_offered(r)
            live.note_admitted(r)
            r.completed_at = latency
            live.note_completed(r)
            events += [
                SimpleNamespace(kind="serve.request", attrs={"tenant": "t"}),
                SimpleNamespace(kind="serve.admit", attrs={"tenant": "t"}),
                SimpleNamespace(kind="serve.complete",
                                attrs={"tenant": "t", "latency_ns": latency}),
            ]
        live.note_offered(make_request(9))
        live.note_shed(make_request(9), RATE_LIMIT)
        events += [
            SimpleNamespace(kind="serve.request", attrs={"tenant": "t"}),
            SimpleNamespace(kind="serve.shed",
                            attrs={"tenant": "t", "reason": RATE_LIMIT}),
        ]
        rebuilt = SLOTracker()
        rebuilt.configure_tenant("t", slo_ns=100.0)
        for ev in events:
            rebuilt.observe(ev)
        assert rebuilt.summary(1e9) == live.summary(1e9)

    def test_unconfigured_tenant_gets_unbounded_slo(self):
        tr = SLOTracker()
        r = make_request(tenant="ghost")
        tr.note_offered(r)
        assert tr.tenant("ghost").slo_ns == float("inf")


# ----------------------------------------------------------------------
# presets
# ----------------------------------------------------------------------
class TestServingPresets:
    def test_registry_names(self):
        assert set(SERVING_PRESETS) == {"steady", "flash-crowd", "diurnal"}

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError, match="unknown serving preset"):
            serving_preset("tsunami")

    def test_tenant_validation(self):
        with pytest.raises(ValueError):
            TenantSpec(name="t", rate_rps=0.0)
        with pytest.raises(ValueError):
            TenantSpec(name="t", arrival="nope")
        with pytest.raises(ValueError):
            TenantSpec(name="t", items_range=(10, 5))


# ----------------------------------------------------------------------
# end to end
# ----------------------------------------------------------------------
class TestServingEndToEnd:
    @pytest.fixture(scope="class")
    def steady(self):
        return run_serving_experiment(preset="steady", seed=7)

    def test_accounting_closes(self, steady):
        r = steady
        assert r.offered == r.admitted + r.shed
        assert r.completed == r.admitted          # everything admitted ran
        assert r.unrecovered == 0
        assert r.batches > 0
        assert r.mean_batch_size >= 1.0
        # drain-time flush_all accounts for any remainder
        assert r.batches >= r.flushes_full + r.flushes_timeout
        assert r.horizon_ns > 0

    def test_autoscaler_reconfigures_under_load(self, steady):
        a = steady.autoscaler
        assert a["regions_configured"] >= 1       # the acceptance bar
        assert a["evaluations"] > 0
        assert a["actions"], "every load/evict/replica must leave a record"
        assert steady.machine["hw_calls"] > 0     # the loads actually ran

    def test_tenant_metrics_present(self, steady):
        for name, t in steady.tenants.items():
            lat = t["latency_ns"]
            for key in ("p50", "p95", "p99", "mean", "count", "max"):
                assert key in lat
            if t["completed"]:
                assert lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
                assert t["goodput_rps"] > 0
            assert 0.0 <= t["shed_rate"] <= 1.0

    def test_seeded_runs_are_byte_identical(self):
        a = run_serving_experiment(preset="steady", seed=3)
        b = run_serving_experiment(preset="steady", seed=3)
        assert a.json() == b.json()

    def test_seeds_change_the_run(self, steady):
        other = run_serving_experiment(preset="steady", seed=8)
        assert other.json() != steady.json()

    def test_flash_crowd_sheds_but_recovers(self):
        r = run_serving_experiment(preset="flash-crowd", seed=7)
        assert r.shed > 0                         # the crowd overwhelmed it
        assert r.admission_verdicts[RATE_LIMIT] + \
            r.admission_verdicts[QUEUE_FULL] == r.shed
        assert r.unrecovered == 0                 # everything admitted ran
        interactive = r.tenants["interactive"]
        assert interactive["shed_rate"] > 0.1
        # elastic response: the autoscaler reshaped the fabric
        assert r.autoscaler["regions_configured"] >= 1
        assert r.autoscaler["replicas"] >= 1

    def test_report_json_is_canonical(self, steady):
        import json as json_mod

        d = json_mod.loads(steady.json())
        assert d["scenario"] == "steady"
        assert d["machine"]["workers"] >= 1
        assert set(d["tenants"]) == {"batch", "interactive"}


CRASH = {"kind": "crash", "worker": 1, "at_ns": 400_000.0,
         "downtime_ns": 600_000.0}


class TestServingUnderChaos:
    def test_worker_crash_mid_flash_crowd_recovers(self):
        """The acceptance story: a Worker dies mid-crowd, the self-healing
        runtime re-runs its tasks, no admitted request is lost, and p99
        degrades but stays bounded."""
        from repro.core.runtime import FaultTolerancePolicy

        clean = run_serving_experiment(preset="flash-crowd", seed=7)
        ft = FaultTolerancePolicy(heartbeat_period_ns=10_000.0,
                                  miss_threshold=2)
        faulty = run_serving_experiment(
            preset="flash-crowd", seed=7, fault_tolerance=ft,
            faults=[CRASH],
        )
        assert faulty.machine["worker_failures"] >= 1
        assert faulty.machine["tasks_retried"] >= 1
        assert faulty.unrecovered == 0            # zero lost requests
        assert faulty.completed == faulty.admitted
        assert faulty.chaos["worker"] == 1
        p99_clean = clean.tenants["interactive"]["latency_ns"]["p99"]
        p99_faulty = faulty.tenants["interactive"]["latency_ns"]["p99"]
        assert p99_faulty >= p99_clean            # degraded...
        assert p99_faulty <= 10.0 * p99_clean     # ...but bounded

    def test_every_fault_of_the_list_is_reported(self):
        from repro.core.runtime import FaultTolerancePolicy

        rack = {"kind": "domain", "domain": "rack0", "at_ns": 150_000.0,
                "downtime_ns": 120_000.0}
        report = run_serving_experiment(
            "steady", seed=0, fault_tolerance=FaultTolerancePolicy(),
            faults=[CRASH, rack],
        )
        crash, domain = report.chaos["faults"]
        assert crash == {"worker": 1, "at_ns": 400_000.0,
                         "downtime_ns": 600_000.0}
        assert domain["domain"] == "rack0" and domain["workers"]

    def test_chaos_run_is_deterministic(self):
        from repro.core.runtime import FaultTolerancePolicy

        def go():
            return run_serving_experiment(
                preset="flash-crowd", seed=7,
                fault_tolerance=FaultTolerancePolicy(
                    heartbeat_period_ns=10_000.0, miss_threshold=2),
                faults=[CRASH],
            )

        assert go().json() == go().json()
