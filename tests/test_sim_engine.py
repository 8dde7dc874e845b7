"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim import SimulationError, Simulator
from repro.telemetry import Telemetry, attach_simulator


def test_initial_state():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.pending == 0
    assert sim.events_processed == 0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "late")
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(3.0, fired.append, "middle")
    sim.run()
    assert fired == ["early", "middle", "late"]
    assert sim.now == 5.0


def test_equal_time_events_fire_in_insertion_order():
    sim = Simulator()
    fired = []
    for tag in "abcde":
        sim.schedule(2.0, fired.append, tag)
    sim.run()
    assert fired == list("abcde")


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda _: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(10.0, lambda _: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda _: None)


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(10.0, fired.append, "b")
    sim.run(until=5.0)
    assert fired == ["a"]
    assert sim.now == 5.0  # clock advanced to the horizon
    sim.run()
    assert fired == ["a", "b"]


def test_run_max_events():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_zero_delay_event_fires_at_current_time():
    sim = Simulator()
    times = []
    sim.schedule(2.0, lambda _: sim.schedule(0.0, lambda _: times.append(sim.now)))
    sim.run()
    assert times == [2.0]


def test_peek_empty_returns_none():
    sim = Simulator()
    assert sim.peek() is None


def test_step_returns_false_on_empty_queue():
    sim = Simulator()
    assert sim.step() is False


def test_step_from_a_callback_during_run_is_rejected():
    # a nested step would fire an event the outer loop still holds and
    # could move the clock past entries that loop has yet to fire
    sim = Simulator()
    errors = []

    def nested(_):
        try:
            sim.step()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, nested)
    sim.schedule(2.0, lambda _: None)
    sim.run()
    assert len(errors) == 1
    assert sim.events_processed == 2
    assert sim.now == 2.0


def test_events_processed_counts():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda _: None)
    sim.run()
    assert sim.events_processed == 5


def test_run_until_with_max_events_never_passes_a_pending_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run(until=5.0, max_events=1)
    # "b" is still due at 2.0, so the clock stops there, not at 5.0
    assert fired == ["a"]
    assert sim.now == 2.0
    sim.schedule(0.0, fired.append, "c")
    sim.run(until=5.0)
    assert fired == ["a", "b", "c"]
    assert sim.now == 5.0


def test_same_instant_wakeups_interleave_with_heap_by_seq():
    sim = Simulator()
    fired = []

    def at_one(_):
        sim.schedule(0.0, fired.append, "lane")  # due now
        sim.schedule_at(1.0, fired.append, "lane too")

    sim.schedule(1.0, at_one)
    sim.schedule(1.0, fired.append, "older")  # queued before the clock hit 1.0
    sim.run()
    assert fired == ["older", "lane", "lane too"]


def test_soon_each_queues_pairs_in_order_behind_the_lane():
    sim = Simulator()
    fired = []

    def at_one(_):
        sim._soon(fired.append, "first")
        sim._soon_each(fired.append, ["a", "b", "c"])
        sim._soon(fired.append, "last")

    sim.schedule(1.0, at_one)
    sim.run()
    assert fired == ["first", "a", "b", "c", "last"]
    assert sim.events_processed == 6


def test_pending_and_gauge_count_both_queues():
    sim = Simulator()
    hub = Telemetry(sim)
    attach_simulator(hub, sim)
    sim.schedule(0.0, lambda _: None)  # lane
    sim.schedule_at(0.0, lambda _: None)  # lane
    sim.schedule(3.0, lambda _: None)  # heap
    assert len(sim._lane) == 2 and len(sim._queue) == 1
    assert sim.pending == 3
    assert hub.snapshot()["gauge.sim.pending_events.last"] == 3.0
    sim.run(until=1.0)
    assert sim.pending == 1
    assert hub.snapshot()["gauge.sim.pending_events.last"] == 1.0


def test_schedule_at_keeps_the_exact_time():
    # now + (time - now) can round away from ``time``
    sim = Simulator()
    sim.schedule(1.3436424411240122, lambda _: None)
    sim.run()
    target = 3.6209383111023867
    assert sim.now + (target - sim.now) != target
    seen = []
    sim.schedule_at(target, lambda _: seen.append(sim.now))
    sim.run()
    assert seen == [target]


class TestNanTimesRejected:
    """NaN compares false with everything, so a ``delay < 0`` guard lets
    it through and the clock then reads ``nan``; every entry point that
    takes a time rejects it (``inf`` stays legal)."""

    NAN = float("nan")

    def test_timeout(self):
        from repro.sim import Timeout

        with pytest.raises(SimulationError):
            Timeout(self.NAN)
        assert Timeout(float("inf")).delay == float("inf")

    def test_schedule(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(self.NAN, lambda _: None)
        assert sim.pending == 0
        sim.schedule(float("inf"), lambda _: None)
        assert sim.peek() == float("inf")

    def test_schedule_at(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(self.NAN, lambda _: None)
        assert sim.pending == 0
        sim.schedule(2.0, lambda _: None)
        sim.run()
        # the clock cannot be dragged backwards through a NaN either
        with pytest.raises(SimulationError):
            sim.schedule_at(-1.0, lambda _: None)
        assert sim.now == 2.0

    def test_warp_to(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.warp_to(self.NAN)
        assert sim.now == 0.0
        sim.warp_to(float("inf"))
        assert sim.now == float("inf")
