"""Tests for degraded-mode serving: the brownout latch, priority-floor
shedding, deadline stretch, autoscaler/alerter coupling, and the
byte-identity of disabled-mode serving reports."""

import pytest

from repro.serving import (
    BROWNOUT,
    BrownoutController,
    BrownoutPolicy,
    BurnRateAlerter,
    run_serving_experiment,
)
from repro.sim import Simulator


class TestBrownoutPolicy:
    def test_defaults(self):
        policy = BrownoutPolicy()
        assert policy.priority_floor == 2
        assert policy.deadline_stretch == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BrownoutPolicy(priority_floor=0)
        with pytest.raises(ValueError):
            BrownoutPolicy(deadline_stretch=0.5)


class TestBrownoutController:
    def _controller(self):
        sim = Simulator()
        return sim, BrownoutController(BrownoutPolicy(), sim)

    def test_enter_exit_latch(self):
        sim, ctrl = self._controller()
        assert not ctrl.active
        ctrl.enter("domain:rack0")
        assert ctrl.active and ctrl.reason == "domain:rack0"
        ctrl.exit()
        assert not ctrl.active and ctrl.reason is None
        assert [e["event"] for e in ctrl.timeline] == ["enter", "exit"]
        assert ctrl.entries == 1

    def test_nested_outages_are_one_brownout(self):
        sim, ctrl = self._controller()
        ctrl.enter("domain:blade0")
        ctrl.enter("domain:blade1")      # second concurrent outage
        assert ctrl.entries == 1         # still one degraded window
        ctrl.exit()
        assert ctrl.active               # blade1 still down
        ctrl.exit()
        assert not ctrl.active
        assert len(ctrl.timeline) == 2

    def test_spurious_exit_is_ignored(self):
        _, ctrl = self._controller()
        ctrl.exit()
        assert not ctrl.active and not ctrl.timeline

    def test_should_shed_respects_the_priority_floor(self):
        _, ctrl = self._controller()
        assert not ctrl.should_shed(1)          # healthy: never shed
        ctrl.enter("x")
        assert ctrl.should_shed(1)              # batch below the floor
        assert not ctrl.should_shed(2)          # interactive at the floor
        assert not ctrl.should_shed(3)

    def test_wait_stretch_only_while_degraded(self):
        _, ctrl = self._controller()
        assert ctrl.wait_stretch() == 1.0
        ctrl.enter("x")
        assert ctrl.wait_stretch() == 2.0
        ctrl.exit()
        assert ctrl.wait_stretch() == 1.0

    def test_degraded_ns_accumulates_sim_time(self):
        sim, ctrl = self._controller()
        sim.schedule(100.0, ctrl.enter, "x")
        sim.schedule(350.0, ctrl.exit)
        sim.run()
        assert ctrl.degraded_ns == 250.0
        assert ctrl.report_block()["degraded_ns"] == 250.0

    def test_open_window_counts_in_the_report(self):
        sim, ctrl = self._controller()
        sim.schedule(100.0, ctrl.enter, "x")
        sim.schedule(400.0, lambda: None)   # advance the clock, stay degraded
        sim.run()
        block = ctrl.report_block()
        assert block["active"] is True
        assert block["degraded_ns"] == 300.0
        assert ctrl.degraded_ns == 0.0      # closed-window total unchanged

    def test_listeners_see_every_transition(self):
        sim, ctrl = self._controller()
        seen = []
        ctrl.listeners.append(lambda active, reason, ts: seen.append((active, reason)))
        ctrl.enter("a")
        ctrl.enter("b")                      # nested: no transition
        ctrl.exit()
        ctrl.exit()
        assert seen == [(True, "a"), (False, "a")]


class TestAlerterCoupling:
    def test_note_degraded_lands_on_the_alert_timeline(self):
        alerter = BurnRateAlerter()
        alerter.note_degraded(True, "domain:rack0", 1_000.0)
        alerter.note_degraded(False, "domain:rack0", 5_000.0)
        events = [e for e in alerter.timeline if e["window"] == "degraded"]
        assert [e["event"] for e in events] == ["degraded-enter", "degraded-exit"]
        assert events[0]["tenant"] == "*"
        assert events[0]["ts"] == 1_000.0


KILL = [{"kind": "domain", "domain": "rack0", "at_ns": 150_000.0,
         "downtime_ns": 120_000.0}]


class TestDegradedServing:
    def test_brownout_sheds_batch_keeps_interactive(self):
        report = run_serving_experiment(
            "steady", seed=0, brownout=BrownoutPolicy(), faults=KILL
        )
        block = report.degraded
        assert block["entries"] == 1
        assert block["shed"] > 0
        assert block["active"] is False
        assert block["degraded_ns"] == 120_000.0
        assert [e["event"] for e in block["timeline"]] == ["enter", "exit"]
        assert block["timeline"][0]["reason"] == "domain:rack0"
        # only the batch tenant (priority 1 < floor 2) was shed for
        # brownout; the interactive tier kept its admission path
        batch = report.tenants["batch"]
        interactive = report.tenants["interactive"]
        assert batch["shed"].get(BROWNOUT, 0) == block["shed"]
        assert BROWNOUT not in interactive.get("shed", {})
        assert report.chaos["domain"] == "rack0"

    def test_degraded_runs_are_seed_deterministic(self):
        a = run_serving_experiment(
            "steady", seed=3, brownout=BrownoutPolicy(), faults=KILL
        )
        b = run_serving_experiment(
            "steady", seed=3, brownout=BrownoutPolicy(), faults=KILL
        )
        assert a.json() == b.json()

    def test_priority_floor_one_sheds_nobody(self):
        report = run_serving_experiment(
            "steady",
            seed=0,
            brownout=BrownoutPolicy(priority_floor=1),
            faults=KILL,
        )
        # the latch engaged but no tenant sits below floor 1
        assert report.degraded["entries"] == 1
        assert report.degraded["shed"] == 0


class TestDisabledParity:
    def test_no_policy_means_no_degraded_block(self):
        # even under a domain kill: without a BrownoutPolicy there is no
        # controller, no shedding, and no "degraded" key in the report
        report = run_serving_experiment("steady", seed=0, faults=KILL)
        assert report.degraded == {}
        assert "degraded" not in report.to_dict()
        assert BROWNOUT not in report.tenants["batch"].get("shed", {})

    def test_plain_runs_stay_byte_identical(self):
        a = run_serving_experiment("steady", seed=0)
        b = run_serving_experiment("steady", seed=0)
        assert a.json(indent=2) == b.json(indent=2)
        assert "degraded" not in a.to_dict()

    def test_idle_brownout_policy_changes_no_counters(self):
        # policy armed but no outage: nothing shed, zero degraded time,
        # and the serving counters match the plain run exactly
        plain = run_serving_experiment("steady", seed=0)
        armed = run_serving_experiment(
            "steady", seed=0, brownout=BrownoutPolicy()
        )
        block = armed.degraded
        assert block["entries"] == 0 and block["shed"] == 0
        plain_dict = plain.to_dict()
        armed_dict = armed.to_dict()
        armed_dict.pop("degraded")
        assert armed_dict == plain_dict
