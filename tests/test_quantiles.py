"""Tests for the shared latency-statistics helpers in
``repro.telemetry.quantiles`` and their adoption by the histogram, the
execution history and the machine report (the former duplicated math)."""

import random

import pytest

from repro.sim.stats import Histogram
from repro.telemetry import (
    StreamingQuantile,
    fold_sum,
    histogram_percentile,
    latency_summary,
    mean,
    percentile,
)


class TestMean:
    def test_empty_is_zero(self):
        assert mean([]) == 0.0

    def test_simple(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_accepts_any_iterable(self):
        assert mean(x for x in (2.0, 4.0)) == pytest.approx(3.0)


class TestFoldSum:
    def test_adds_left_to_right(self):
        # a compensated sum (``sum()`` since Python 3.12) gives 1.0 here
        assert fold_sum([1e100, 1.0, -1e100]) == 0.0
        assert fold_sum([1e100, -1e100, 1.0]) == 1.0

    def test_matches_a_running_total(self):
        rng = random.Random(3)
        values = [rng.uniform(-1e6, 1e6) for _ in range(200)]
        total = 0
        for v in values:
            total += v
        assert fold_sum(values) == total
        assert fold_sum(iter(values)) == total

    def test_empty_is_zero(self):
        assert fold_sum([]) == 0

    def test_mean_uses_it(self):
        assert mean([1e100, 1.0, -1e100]) == 0.0


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 50.0) == 0.0

    def test_singleton(self):
        assert percentile([7.0], 99.0) == 7.0

    def test_linear_interpolation(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == pytest.approx(2.5)
        assert percentile([1.0, 2.0, 3.0, 4.0], 25.0) == pytest.approx(1.75)

    def test_extremes(self):
        data = [5.0, 1.0, 3.0]
        assert percentile(data, 0.0) == 1.0
        assert percentile(data, 100.0) == 5.0

    def test_does_not_mutate_input(self):
        data = [3.0, 1.0, 2.0]
        percentile(data, 50.0)
        assert data == [3.0, 1.0, 2.0]

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)
        with pytest.raises(ValueError):
            percentile([1.0], -1.0)


class TestHistogramPercentile:
    def test_empty_is_zero(self):
        assert histogram_percentile([0.0, 1.0], [0], 0, 0, 50.0) == 0.0

    def test_midpoint_convention(self):
        # two bins [0,10) and [10,20), one count each: p25 lands in the
        # first bin (midpoint 5), p75 in the second (midpoint 15)
        edges, counts = [0.0, 10.0, 20.0], [1, 1]
        assert histogram_percentile(edges, counts, 0, 0, 25.0) == 5.0
        assert histogram_percentile(edges, counts, 0, 0, 75.0) == 15.0

    def test_underflow_and_overflow(self):
        edges, counts = [0.0, 10.0], [0]
        assert histogram_percentile(edges, counts, 3, 0, 50.0) == 0.0
        assert histogram_percentile(edges, counts, 0, 3, 99.0) == 10.0

    def test_histogram_class_delegates(self):
        h = Histogram([float(e) for e in range(0, 110, 10)])
        values = [3.0, 14.0, 25.0, 47.0, 88.0, 150.0, -2.0]
        for v in values:
            h.record(v)
        for p in (10.0, 50.0, 90.0, 99.0):
            assert h.percentile(p) == histogram_percentile(
                h.edges, h.counts, h.underflow, h.overflow, p
            )


class TestStreamingQuantile:
    def test_validation(self):
        with pytest.raises(ValueError):
            StreamingQuantile(0.0)
        with pytest.raises(ValueError):
            StreamingQuantile(1.0)

    def test_empty_is_zero(self):
        assert StreamingQuantile(0.5).value == 0.0

    def test_exact_below_six_samples(self):
        sq = StreamingQuantile(0.5)
        for v in (5.0, 1.0, 3.0):
            sq.record(v)
        assert sq.count == 3
        assert sq.value == percentile([5.0, 1.0, 3.0], 50.0)

    def test_deterministic(self):
        rng = random.Random("quantile-stream")
        stream = [rng.expovariate(1.0) for _ in range(500)]
        a, b = StreamingQuantile(0.99), StreamingQuantile(0.99)
        for v in stream:
            a.record(v)
            b.record(v)
        assert a.value == b.value

    def test_converges_near_exact(self):
        rng = random.Random(1234)
        stream = [rng.uniform(0.0, 1000.0) for _ in range(2000)]
        sq = StreamingQuantile(0.95)
        for v in stream:
            sq.record(v)
        exact = percentile(stream, 95.0)
        # P^2 is an estimator; on a well-behaved stream it should land
        # within a few percent of the exact sample percentile
        assert abs(sq.value - exact) / exact < 0.05

    def test_single_sample_is_that_sample(self):
        sq = StreamingQuantile(0.99)
        sq.record(42.0)
        assert sq.count == 1
        assert sq.value == 42.0

    def test_exact_to_estimator_handoff_at_small_n(self):
        # below the five-marker threshold the value is the exact sample
        # percentile; from the sixth sample on the P^2 markers take over
        # and must stay inside the observed range
        stream = [9.0, 2.0, 7.0, 4.0, 11.0]
        sq = StreamingQuantile(0.5)
        for i, v in enumerate(stream):
            sq.record(v)
            assert sq.value == percentile(stream[: i + 1], 50.0)
        sq.record(5.0)
        assert min(stream + [5.0]) <= sq.value <= max(stream + [5.0])


class TestLatencySummary:
    def test_empty_all_zero(self):
        s = latency_summary([])
        assert s == {
            "count": 0.0, "mean": 0.0, "max": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }

    def test_default_keys_and_values(self):
        values = [float(v) for v in range(1, 101)]
        s = latency_summary(values)
        assert s["count"] == 100.0
        assert s["mean"] == pytest.approx(50.5)
        assert s["max"] == 100.0
        assert s["p50"] == percentile(values, 50.0)
        assert s["p99"] == percentile(values, 99.0)

    def test_fractional_percentile_label(self):
        s = latency_summary([1.0, 2.0], percentiles=(99.9,))
        assert "p99_9" in s


class TestBurnRateWindows:
    """The sliding burn-rate windows the SLO alerter builds on: edge
    cases (empty, single sample) and replayed-stream determinism."""

    def make(self, window_ns=100.0, threshold=5.0):
        from repro.serving.alerts import _WindowState

        return _WindowState(window_ns, threshold)

    def test_empty_window_burn_is_zero(self):
        assert self.make().burn(budget=0.05) == 0.0

    def test_single_sample(self):
        w = self.make()
        w.observe(0.0, True)
        assert len(w.samples) == 1
        assert w.burn(budget=0.1) == pytest.approx(10.0)  # rate 1 / 0.1

    def test_boundary_sample_is_pruned(self):
        w = self.make(window_ns=100.0)
        w.observe(0.0, True)
        w.observe(100.0, False)          # ts - window == 0.0: pruned
        assert w.violations == 0
        assert len(w.samples) == 1

    def test_replayed_stream_is_deterministic(self):
        from repro.serving.alerts import BurnRateAlerter, BurnRatePolicy

        rng = random.Random("burn-replay")
        stream = [
            (float(i), "t", rng.uniform(0.0, 200.0), 100.0)
            for i in range(300)
        ]

        def run():
            a = BurnRateAlerter(BurnRatePolicy(
                target=0.9, fast_window_ns=20.0, fast_burn=5.0,
                slow_window_ns=120.0, slow_burn=2.0, min_completions=5,
            ))
            for ts, tenant, latency, slo in stream:
                a.observe(ts, tenant, latency, slo)
            return a.timeline

        first, second = run(), run()
        assert first == second
        assert any(e["event"] == "fire" for e in first)
        assert any(e["event"] == "clear" for e in first)


class TestSharedAdoption:
    """The former duplicates now route through the shared helpers."""

    def test_history_latency_summary(self):
        from repro.core.runtime import ExecutionHistory

        h = ExecutionHistory()
        for i, lat in enumerate((100.0, 200.0, 300.0)):
            h.record(function="saxpy", device="sw", worker=0, items=64,
                     latency_ns=lat, energy_pj=1.0, timestamp=float(i))
        s = h.latency_summary(function="saxpy")
        assert s == latency_summary([100.0, 200.0, 300.0])
        assert h.latency_summary(function="nope")["count"] == 0.0

    def test_history_mean_latency_matches_mean(self):
        from repro.core.runtime import ExecutionHistory

        h = ExecutionHistory()
        h.record(function="f", device="sw", worker=0, items=1,
                 latency_ns=10.0, energy_pj=1.0, timestamp=0.0)
        h.record(function="f", device="sw", worker=0, items=1,
                 latency_ns=30.0, energy_pj=3.0, timestamp=0.0)
        assert h.mean_latency("f", "sw") == pytest.approx(mean([10.0, 30.0]))
        assert h.mean_latency("f", "hw") is None   # empty stays None
