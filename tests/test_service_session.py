"""Tests for the service session's control plane: scripted sessions are
byte-identical to the batch harnesses, live submit/reconfigure/chaos
apply at window boundaries deterministically, drain quiesces in-flight
work, and every refusal is a structured error reply."""

import json

import pytest

from repro.experiments import run_jobs_experiment
from repro.service import ServiceSession
from repro.serving import run_serving_experiment

WINDOW_NS = 100_000.0


def fresh_session(**kwargs):
    kwargs.setdefault("telemetry", False)
    return ServiceSession(**kwargs)


def run_script(session, frames):
    """Drive one scripted session; every reply must be ok."""
    replies = []
    for frame in frames:
        reply = session.handle(dict(frame))
        assert reply.get("ok"), (frame, reply)
        replies.append(reply)
    return replies


def archived_report(session, key=None):
    frame = {"cmd": "report"}
    if key is not None:
        frame["key"] = key
    reply = session.handle(frame)
    assert reply["ok"], reply
    return reply["report"]


# ----------------------------------------------------------------------
# byte-identity against the batch harnesses
# ----------------------------------------------------------------------
class TestBatchIdentity:
    def test_serving_session_matches_batch_run(self):
        session = fresh_session()
        run_script(session, [
            {"cmd": "submit", "kind": "serving", "preset": "steady", "seed": 0},
            {"cmd": "run"},
        ])
        batch = run_serving_experiment("steady", seed=0).json(indent=2)
        assert archived_report(session) == batch

    def test_jobs_session_matches_batch_run(self):
        session = fresh_session()
        run_script(session, [
            {"cmd": "submit", "kind": "jobs", "preset": "mini", "seed": 0},
            {"cmd": "run"},
        ])
        batch = run_jobs_experiment("mini", seed=0).json(indent=2)
        assert archived_report(session) == batch

    def test_stepping_matches_one_shot_run(self):
        # run(until=boundary) fires events in the order one uninterrupted
        # run() would, so window-by-window stepping changes nothing
        stepped = fresh_session()
        run_script(stepped, [
            {"cmd": "submit", "kind": "serving", "preset": "steady", "seed": 0},
        ])
        while stepped.workload is not None:
            assert stepped.handle({"cmd": "step", "windows": 1})["ok"]
        batch = run_serving_experiment("steady", seed=0).json(indent=2)
        assert archived_report(stepped) == batch

    def test_alerts_armed_epoch_matches_batch(self):
        from repro.serving import BurnRatePolicy

        session = fresh_session()
        run_script(session, [
            {"cmd": "submit", "kind": "serving", "preset": "steady", "seed": 0,
             "alerts": {"slo_scale": 0.1}},
            {"cmd": "run"},
        ])
        batch = run_serving_experiment(
            "steady", seed=0, alerts=BurnRatePolicy(slo_scale=0.1)
        ).json(indent=2)
        assert archived_report(session) == batch
        assert json.loads(archived_report(session))["alerts"]["fired"] > 0

    def test_telemetry_on_session_still_matches_batch(self):
        # the PR 5 contract: instrumenting never changes the report
        session = fresh_session(telemetry=True)
        run_script(session, [
            {"cmd": "submit", "kind": "serving", "preset": "steady", "seed": 0},
            {"cmd": "run"},
        ])
        batch = run_serving_experiment("steady", seed=0).json(indent=2)
        assert archived_report(session) == batch


# ----------------------------------------------------------------------
# live submit (requests onto a running gateway, jobs onto a machine)
# ----------------------------------------------------------------------
class TestLiveSubmit:
    SCRIPT = [
        {"cmd": "submit", "kind": "serving", "preset": "steady", "seed": 0,
         "hold_open": True},
        {"cmd": "step", "windows": 2},
        {"cmd": "submit", "kind": "requests", "tenant": "batch",
         "function": "saxpy", "items": 256, "count": 3},
        {"cmd": "step", "windows": 2},
        {"cmd": "drain"},
    ]

    def test_injected_requests_are_deterministic(self):
        reports = []
        for _ in range(2):
            session = fresh_session()
            run_script(session, self.SCRIPT)
            reports.append(archived_report(session))
        assert reports[0] == reports[1]
        # the injected requests actually flowed through the gateway
        payload = json.loads(reports[0])
        assert payload["offered"] > 0 and payload["completed"] > 0

    def test_injection_needs_a_serving_epoch(self):
        session = fresh_session()
        reply = session.handle({"cmd": "submit", "kind": "requests",
                                "tenant": "t", "function": "saxpy"})
        assert reply["error"] == "no-workload"

    def test_mid_run_job_submit_is_deterministic(self):
        script = [
            {"cmd": "submit", "kind": "jobs", "preset": "mini", "seed": 0},
            {"cmd": "step", "windows": 3},
            {"cmd": "submit", "kind": "job", "layers": 3, "width": 4,
             "graph_seed": 7},
            {"cmd": "run"},
        ]
        reports = []
        for _ in range(2):
            session = fresh_session()
            run_script(session, script)
            reports.append(archived_report(session))
        assert reports[0] == reports[1]
        base = json.loads(run_jobs_experiment("mini", seed=0).json())
        got = json.loads(reports[0])
        assert len(got["jobs"]) == len(base["jobs"]) + 1

    def test_second_epoch_while_live_is_busy(self):
        session = fresh_session()
        run_script(session, [
            {"cmd": "submit", "kind": "serving", "preset": "steady", "seed": 0},
        ])
        reply = session.handle({"cmd": "submit", "kind": "serving"})
        assert reply["ok"] is False and reply["error"] == "busy"
        reply = session.handle({"cmd": "submit", "kind": "jobs"})
        assert reply["error"] == "busy"

    def test_unknown_submit_kind(self):
        session = fresh_session()
        reply = session.handle({"cmd": "submit", "kind": "quantum"})
        assert reply["error"] == "bad-args"


# ----------------------------------------------------------------------
# reconfigure applies at the next window boundary
# ----------------------------------------------------------------------
class TestReconfigure:
    def test_live_knobs_apply_between_windows(self):
        session = fresh_session()
        run_script(session, [
            {"cmd": "submit", "kind": "serving", "preset": "steady", "seed": 0},
            {"cmd": "step", "windows": 1},
        ])
        gateway = session.workload.gateway
        before = gateway.batcher.max_batch
        reply = session.handle({"cmd": "reconfigure", "max_batch": before + 2,
                                "max_wait_ns": 5_000.0})
        assert reply["ok"] and reply["scope"] == "live"
        assert reply["at_ns"] == pytest.approx(WINDOW_NS)
        assert gateway.batcher.max_batch == before + 2
        assert gateway.batcher.max_wait_ns == 5_000.0
        # journaled, so a snapshot would replay it at the same boundary
        assert len(session._journal) == 2

    def test_preset_swap_reconfigures_tenants_in_place(self):
        session = fresh_session()
        run_script(session, [
            {"cmd": "submit", "kind": "serving", "preset": "steady", "seed": 0},
            {"cmd": "step", "windows": 1},
        ])
        reply = session.handle({"cmd": "reconfigure", "preset": "diurnal"})
        assert reply["ok"] and reply["scope"] == "live"
        assert reply["applied"]["scenario"] == "diurnal"
        assert set(reply["applied"]["tenants"]) <= set(
            session.workload.gateway.slo._tenants
        )

    def test_scheduling_policy_swap_on_jobs_epoch(self):
        session = fresh_session()
        run_script(session, [
            {"cmd": "submit", "kind": "jobs", "preset": "mini", "seed": 0},
            {"cmd": "step", "windows": 1},
        ])
        reply = session.handle({"cmd": "reconfigure", "policy": "energy"})
        assert reply["ok"]
        assert session.workload.manager.engine.default_policy.name == "energy"
        run_script(session, [{"cmd": "run"}])

    def test_reconfigure_while_idle_retargets_defaults(self):
        session = fresh_session()
        reply = session.handle({"cmd": "reconfigure", "preset": "diurnal",
                                "seed": 9})
        assert reply["ok"] and reply["scope"] == "defaults"
        assert session.default_preset == "diurnal"
        assert session.default_seed == 9
        reply = session.handle({"cmd": "reconfigure"})
        assert reply["ok"] is False and reply["error"] == "no-workload"

    def test_no_applicable_knobs_is_bad_args(self):
        session = fresh_session()
        run_script(session, [
            {"cmd": "submit", "kind": "serving", "preset": "steady", "seed": 0},
        ])
        reply = session.handle({"cmd": "reconfigure", "bogus_knob": 3})
        assert reply["ok"] is False and reply["error"] == "bad-args"

    def test_brownout_toggle_requires_policy(self):
        session = fresh_session()
        run_script(session, [
            {"cmd": "submit", "kind": "serving", "preset": "steady", "seed": 0},
        ])
        reply = session.handle({"cmd": "reconfigure", "brownout": "enter"})
        assert reply["error"] == "no-brownout"
        armed = fresh_session()
        run_script(armed, [
            {"cmd": "submit", "kind": "serving", "preset": "steady", "seed": 0,
             "brownout": True},
            {"cmd": "reconfigure", "brownout": "enter"},
            {"cmd": "reconfigure", "brownout": "exit"},
            {"cmd": "run"},
        ])


# ----------------------------------------------------------------------
# online chaos
# ----------------------------------------------------------------------
class TestOnlineChaos:
    def test_chaos_needs_fault_tolerance_unless_forced(self):
        session = fresh_session()
        run_script(session, [
            {"cmd": "submit", "kind": "serving", "preset": "steady", "seed": 0},
        ])
        fault = {"kind": "crash", "worker": 1, "at_ns": 250_000.0,
                 "downtime_ns": 200_000.0}
        reply = session.handle({"cmd": "chaos", "faults": [fault]})
        assert reply["ok"] is False and reply["error"] == "no-fault-tolerance"
        reply = session.handle({"cmd": "chaos", "faults": [fault],
                                "force": True})
        assert reply["ok"] and reply["planned"] == 1

    def test_mid_run_crash_is_deterministic_and_reported(self):
        script = [
            {"cmd": "submit", "kind": "serving", "preset": "steady", "seed": 0,
             "fault_tolerance": True},
            {"cmd": "step", "windows": 2},
            {"cmd": "chaos", "faults": [
                {"kind": "crash", "worker": 1, "at_ns": 400_000.0,
                 "downtime_ns": 300_000.0},
            ]},
            {"cmd": "run"},
        ]
        reports = []
        for _ in range(2):
            session = fresh_session()
            run_script(session, script)
            reports.append(archived_report(session))
        assert reports[0] == reports[1]
        chaos = json.loads(reports[0])["chaos"]
        assert chaos == {"worker": 1, "at_ns": 400_000.0,
                         "downtime_ns": 300_000.0}

    def test_chaos_without_workload(self):
        session = fresh_session()
        reply = session.handle({"cmd": "chaos", "faults": [
            {"kind": "crash", "worker": 0},
        ]})
        assert reply["error"] == "no-workload"

    def test_empty_fault_list_is_bad_args(self):
        session = fresh_session()
        run_script(session, [
            {"cmd": "submit", "kind": "jobs", "preset": "mini", "seed": 0,
             "fault_tolerance": True},
        ])
        reply = session.handle({"cmd": "chaos", "faults": []})
        assert reply["error"] == "bad-args"


# ----------------------------------------------------------------------
# drain and lifecycle
# ----------------------------------------------------------------------
class TestDrain:
    def test_drain_with_inflight_jobs_finishes_them(self):
        session = fresh_session()
        run_script(session, [
            {"cmd": "submit", "kind": "jobs", "preset": "mini", "seed": 0},
            {"cmd": "step", "windows": 1},
        ])
        assert session.workload is not None
        reply = session.handle({"cmd": "drain"})
        assert reply["ok"] and reply["drained"] and reply["state"] == "idle"
        assert session.workload is None
        # in-flight work completed: the archived report is the full mix
        batch = run_jobs_experiment("mini", seed=0).json(indent=2)
        assert archived_report(session) == batch

    def test_drain_releases_held_gateway(self):
        session = fresh_session()
        run_script(session, [
            {"cmd": "submit", "kind": "serving", "preset": "steady", "seed": 0,
             "arrivals": False},
            {"cmd": "submit", "kind": "requests", "tenant": "interactive",
             "function": "saxpy", "items": 128, "count": 2},
        ])
        reply = session.handle({"cmd": "run"})
        assert reply["ok"] and reply["state"] == "held"
        reply = session.handle({"cmd": "drain"})
        assert reply["drained"] and reply["state"] == "idle"
        report = json.loads(archived_report(session))
        assert report["offered"] == 2 and report["completed"] == 2

    def test_drain_while_idle_is_a_noop(self):
        session = fresh_session()
        reply = session.handle({"cmd": "drain"})
        assert reply["ok"] and reply["state"] == "idle"
        assert reply["drained"] is False

    def test_status_and_report_lifecycle(self):
        session = fresh_session()
        assert session.handle({"cmd": "status"})["state"] == "idle"
        reply = session.handle({"cmd": "report"})
        assert reply["error"] == "no-reports"
        run_script(session, [
            {"cmd": "submit", "kind": "serving", "preset": "steady", "seed": 0},
        ])
        status = session.handle({"cmd": "status"})
        assert status["state"] == "running"
        assert status["workload"]["kind"] == "serving"
        run_script(session, [{"cmd": "run"}])
        status = session.handle({"cmd": "status"})
        assert status["state"] == "idle"
        assert status["reports"] == ["serving:steady:0#0"]
        reply = session.handle({"cmd": "report", "key": "serving:steady:0#0"})
        assert reply["ok"]
        reply = session.handle({"cmd": "report", "key": "nope"})
        assert reply["error"] == "no-reports"

    def test_back_to_back_epochs_get_distinct_keys(self):
        session = fresh_session()
        run_script(session, [
            {"cmd": "submit", "kind": "serving", "preset": "steady", "seed": 0},
            {"cmd": "run"},
            {"cmd": "submit", "kind": "jobs", "preset": "mini", "seed": 0},
            {"cmd": "run"},
        ])
        keys = [e["key"] for e in session.archive]
        assert keys == ["serving:steady:0#0", "jobs:mini:0#1"]

    def test_metrics_and_events_on_live_epoch(self):
        session = fresh_session(telemetry=True)
        run_script(session, [
            {"cmd": "submit", "kind": "serving", "preset": "steady", "seed": 0},
            {"cmd": "step", "windows": 2},
        ])
        reply = session.handle({"cmd": "metrics"})
        assert reply["ok"] and "# TYPE" in reply["text"]
        tail = session.handle({"cmd": "events"})
        assert tail["ok"] and tail["cursor"] > 0 and tail["events"]
        again = session.handle({"cmd": "events"})
        assert again["cursor"] >= tail["cursor"]

    def test_telemetry_reaches_every_layer_without_changing_the_report(self):
        session = fresh_session(telemetry=True)
        run_script(session, [
            {"cmd": "submit", "kind": "serving", "preset": "steady", "seed": 0},
            {"cmd": "step", "windows": 2},
        ])
        names = list(session.workload.hub.snapshot())
        for probe in (".noc.", ".cache.", ".dram.", ".smmu.", ".fabric.",
                      "runtime."):
            assert any(probe in name for name in names), probe
        assert "_noc_" in session.handle({"cmd": "metrics"})["text"]
        run_script(session, [{"cmd": "run"}])
        batch = run_serving_experiment("steady", seed=0).json(indent=2)
        assert archived_report(session) == batch

    def test_metrics_errors(self):
        session = fresh_session(telemetry=True)
        assert session.handle({"cmd": "metrics"})["error"] == "no-workload"
        dark = fresh_session(telemetry=False)
        run_script(dark, [
            {"cmd": "submit", "kind": "serving", "preset": "steady", "seed": 0},
        ])
        assert dark.handle({"cmd": "metrics"})["error"] == "telemetry-off"
