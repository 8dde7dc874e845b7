"""Property-based tests for the statistics primitives.

Pins down the numeric contracts the telemetry hub relies on:
the Welford running mean of Histogram, TimeWeighted.time_average bounds, and
Histogram.percentile behaviour on every degenerate shape (empty,
all-underflow, all-overflow).
"""

import math

from hypothesis import given, settings, strategies as st

from repro.sim import Simulator
from repro.sim.stats import Histogram, TimeWeighted

finite = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
deltas = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


# ----------------------------------------------------------------------
# Histogram running mean (Welford)
# ----------------------------------------------------------------------


def test_monitor_welford_survives_large_offset():
    """Histogram's Welford running mean keeps large values with a small
    spread exact."""
    h = Histogram([0.0, 1.0])
    for v in (1e9, 1e9 + 1.0, 1e9 + 2.0):
        h.record(v)
    assert h.count == 3
    assert h.mean == 1e9 + 1.0


# ----------------------------------------------------------------------
# TimeWeighted.time_average
# ----------------------------------------------------------------------


@given(
    initial=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    steps=st.lists(st.tuples(deltas, finite), max_size=20),
    tail=deltas,
)
@settings(max_examples=100, deadline=None)
def test_time_average_within_value_envelope(initial, steps, tail):
    """The time average of a piecewise-constant signal lies between the
    smallest and largest value the signal ever held."""
    sim = Simulator()
    g = TimeWeighted(sim, initial=initial)
    values = [initial]
    for dt, v in steps:
        sim.schedule(sim.now + dt, lambda _: None)
        sim.run()
        g.set(v)
        values.append(v)
    sim.schedule(sim.now + tail, lambda _: None)
    sim.run()
    avg = g.time_average()
    lo, hi = min(values), max(values)
    span = max(abs(lo), abs(hi), 1.0)
    assert lo - 1e-6 * span <= avg <= hi + 1e-6 * span


def test_time_average_with_no_elapsed_time_is_current_value():
    sim = Simulator()
    g = TimeWeighted(sim, initial=3.0)
    assert g.time_average() == 3.0
    g.set(7.0)  # still at t=0
    assert g.time_average() == 7.0


def test_time_average_weights_by_duration():
    sim = Simulator()
    g = TimeWeighted(sim, initial=0.0)
    sim.schedule(10.0, lambda _: g.set(100.0))
    sim.schedule(40.0, lambda _: None)
    sim.run()
    # 0 for 10 ns, then 100 for 30 ns
    assert math.isclose(g.time_average(), (0 * 10 + 100 * 30) / 40.0)
    assert g.maximum == 100.0


# ----------------------------------------------------------------------
# Histogram.percentile edge cases
# ----------------------------------------------------------------------

EDGES = [0.0, 10.0, 100.0, 1000.0]


def test_percentile_empty_histogram_is_zero():
    h = Histogram(EDGES)
    for p in (0, 50, 100):
        assert h.percentile(p) == 0.0


def test_percentile_all_overflow_clamps_to_last_edge():
    h = Histogram(EDGES)
    for _ in range(5):
        h.record(1e9)
    assert h.overflow == 5 and sum(h.counts) == 0
    for p in (1, 50, 99, 100):
        assert h.percentile(p) == EDGES[-1]


def test_percentile_all_underflow_clamps_to_first_edge():
    h = Histogram(EDGES)
    for _ in range(5):
        h.record(-1.0)
    assert h.underflow == 5 and sum(h.counts) == 0
    for p in (1, 50, 100):
        assert h.percentile(p) == EDGES[0]


@given(
    values=st.lists(
        st.floats(min_value=-100.0, max_value=2000.0, allow_nan=False),
        min_size=1,
        max_size=60,
    ),
    p=st.floats(min_value=0.0, max_value=100.0),
)
@settings(max_examples=100, deadline=None)
def test_percentile_bounded_and_monotone(values, p):
    h = Histogram(EDGES)
    for v in values:
        h.record(v)
    q = h.percentile(p)
    assert EDGES[0] <= q <= EDGES[-1]
    # monotone in p
    assert h.percentile(min(100.0, p + 5.0)) >= q
    assert h.count == len(values)
