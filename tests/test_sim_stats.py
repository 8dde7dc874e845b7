"""Unit tests for statistics helpers."""

import pytest

from repro.sim import Counter, Histogram, Simulator, StatRegistry, TimeWeighted


def test_counter_accumulates():
    c = Counter("bytes")
    c.add(10)
    c.add(5)
    assert c.value == 15
    assert c.events == 2
    c.reset()
    assert c.value == 0


def test_time_weighted_average():
    sim = Simulator()
    g = TimeWeighted(sim, initial=0.0)
    sim.schedule(10.0, g.set, 4.0)
    sim.run()
    sim.run(until=20.0)
    # 0 for [0,10), 4 for [10,20) -> average 2
    assert g.time_average() == pytest.approx(2.0)
    assert g.maximum == 4.0


def test_time_weighted_add():
    sim = Simulator()
    g = TimeWeighted(sim, initial=1.0)
    g.add(2.0)
    assert g.value == 3.0


def test_histogram_bins_and_percentile():
    h = Histogram([0.0, 10.0, 20.0, 30.0])
    for v in [1, 5, 11, 15, 25]:
        h.record(v)
    assert h.counts == [2, 2, 1]
    assert h.underflow == 0 and h.overflow == 0
    assert h.percentile(50) in (5.0, 15.0)
    assert h.count == 5


def test_histogram_under_overflow():
    h = Histogram([0.0, 1.0])
    h.record(-5)
    h.record(10)
    assert h.underflow == 1
    assert h.overflow == 1


def test_histogram_invalid_edges():
    with pytest.raises(ValueError):
        Histogram([3.0, 1.0])
    with pytest.raises(ValueError):
        Histogram([1.0])


def test_histogram_percentile_bounds():
    h = Histogram([0.0, 1.0])
    with pytest.raises(ValueError):
        h.percentile(150)
    assert h.percentile(50) == 0.0  # empty
    assert h.count == 0 and h.mean == 0.0


def test_registry_reuses_instances():
    sim = Simulator()
    reg = StatRegistry(sim)
    assert reg.counter("a") is reg.counter("a")
    assert reg.histogram("h") is reg.histogram("h")
    assert reg.gauge("g") is reg.gauge("g")


def test_registry_snapshot():
    sim = Simulator()
    reg = StatRegistry(sim)
    reg.counter("traffic").add(100)
    reg.histogram("lat").record(5.0)
    reg.gauge("depth").set(2.0)
    snap = reg.snapshot()
    assert snap["counter.traffic"] == 100
    assert snap["histogram.lat.mean"] == 5.0
    assert "gauge.depth.avg" in snap
