"""Unit tests for execution history and prediction models."""

import itertools

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.core.runtime import (
    DeviceSelector,
    ExecutionHistory,
    ExecutionRecord,
    KnnPredictor,
    LinearModel,
    PcaRegressor,
    kernel_features,
)


def rec(function="f", device="sw", items=100, latency=1000.0, t=0.0, worker=0, energy=10.0):
    return ExecutionRecord(
        function=function,
        device=device,
        worker=worker,
        items=items,
        latency_ns=latency,
        energy_pj=energy,
        timestamp=t,
    )


class TestHistory:
    def test_append_and_query(self):
        h = ExecutionHistory()
        h.append(rec("a", "sw", t=1.0))
        h.append(rec("a", "hw", t=2.0))
        h.append(rec("b", "sw", t=3.0))
        assert len(h) == 3
        assert len(h.records("a")) == 2
        assert len(h.records("a", "hw")) == 1
        assert len(h.records(since=2.5)) == 1
        assert h.functions() == ["a", "b"]

    def test_capacity_evicts_oldest(self):
        h = ExecutionHistory(capacity=2)
        for i in range(5):
            h.append(rec(items=i + 1))
        assert len(h) == 2
        assert h.records()[0].items == 4

    def test_call_counts_and_hotness(self):
        h = ExecutionHistory()
        for _ in range(3):
            h.append(rec("hot", latency=100.0))
        h.append(rec("cold", latency=1.0))
        assert h.call_counts() == {"hot": 3, "cold": 1}
        assert h.total_time_by_function()["hot"] == 300.0

    def test_mean_latency(self):
        h = ExecutionHistory()
        h.append(rec("f", "sw", latency=100.0))
        h.append(rec("f", "sw", latency=300.0))
        assert h.mean_latency("f", "sw") == 200.0
        assert h.mean_latency("missing") is None

    def test_save_load_roundtrip(self, tmp_path):
        h = ExecutionHistory()
        h.append(rec("a", "hw", items=7, latency=42.0, t=5.0))
        path = tmp_path / "history.json"
        h.save(path)
        loaded = ExecutionHistory.load(path)
        assert len(loaded) == 1
        assert loaded.records()[0] == h.records()[0]

    def test_record_validation(self):
        with pytest.raises(ValueError):
            rec(device="gpu")
        with pytest.raises(ValueError):
            rec(items=0)
        with pytest.raises(ValueError):
            ExecutionHistory(capacity=0)

    def test_history_file_bytes_are_pinned(self, tmp_path):
        """The History file's JSON layout: field order, keys and float
        formatting, byte for byte, and a load reproduces the records."""
        h = ExecutionHistory()
        h.record(function="saxpy", device="sw", worker=0, items=512,
                 latency_ns=1234.5, energy_pj=6.25e5, timestamp=10.0)
        h.record(function="fir32", device="hw", worker=3, items=7,
                 latency_ns=0.1, energy_pj=0.0, timestamp=11.0, job=2)
        path = tmp_path / "history.json"
        h.save(path)
        assert path.read_text() == (
            '[{"function": "saxpy", "device": "sw", "worker": 0, "items": 512, '
            '"latency_ns": 1234.5, "energy_pj": 625000.0, "timestamp": 10.0, '
            '"job": 0}, {"function": "fir32", "device": "hw", "worker": 3, '
            '"items": 7, "latency_ns": 0.1, "energy_pj": 0.0, "timestamp": 11.0, '
            '"job": 2}]'
        )
        loaded = ExecutionHistory.load(path)
        assert loaded.records() == h.records()
        again = tmp_path / "again.json"
        loaded.save(again)
        assert again.read_text() == path.read_text()


_FUNCTIONS = ("f", "g", "h")
_SINCES = (None, 0.0, 2.5, 5.0, 9.0)

_records = st.builds(
    ExecutionRecord,
    function=st.sampled_from(_FUNCTIONS),
    device=st.sampled_from(("sw", "hw")),
    worker=st.integers(0, 3),
    items=st.integers(1, 64),
    latency_ns=st.floats(0.0, 1e6, allow_nan=False),
    energy_pj=st.floats(0.0, 1e4, allow_nan=False),
    timestamp=st.floats(0.0, 10.0, allow_nan=False),
    job=st.integers(0, 2),
)


@seed(13)
@settings(max_examples=60, deadline=None)
@given(capacity=st.integers(1, 8), appended=st.lists(_records, max_size=30))
def test_indexed_queries_match_brute_force(capacity, appended):
    """Every indexed query equals a filter over the retained window."""
    h = ExecutionHistory(capacity=capacity)
    for r in appended:
        h.append(r)
    window = appended[-capacity:] if appended else []
    assert h.records() == window
    assert isinstance(h.records(), list)
    for function, device, since, job in itertools.product(
        (None,) + _FUNCTIONS, (None, "sw", "hw"), _SINCES, (None, 0, 1, 2)
    ):
        want = [
            r for r in window
            if (function is None or r.function == function)
            and (device is None or r.device == device)
            and (since is None or r.timestamp >= since)
            and (job is None or r.job == job)
        ]
        assert h.records(function, device, since, job) == want
    for function, device in itertools.product(_FUNCTIONS, (None, "sw", "hw")):
        match = [
            r for r in window
            if r.function == function and (device is None or r.device == device)
        ]
        lat = [r.latency_ns for r in match]
        en = [r.energy_pj for r in match]
        assert h.mean_latency(function, device) == (
            sum(lat) / len(lat) if match else None
        )
        assert h.mean_energy(function, device) == (
            sum(en) / len(en) if match else None
        )


@seed(17)
@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(1, 8),
    appended=st.lists(_records, max_size=30),
    sinces=st.lists(st.floats(-1.0, 11.0, allow_nan=False), max_size=4),
)
def test_since_queries_on_ordered_appends(capacity, appended, sinces):
    """Timestamp-ordered appends (the simulator's case) take the
    newest-first ``since=`` walk; it must equal a filter over the
    retained window, across capacity eviction."""
    appended = sorted(appended, key=lambda r: r.timestamp)
    h = ExecutionHistory(capacity=capacity)
    for r in appended:
        h.append(r)
    window = appended[-capacity:] if appended else []
    stamps = [r.timestamp for r in window]
    for since in list(_SINCES[1:]) + sinces + stamps:
        for function, device in itertools.product(
            (None,) + _FUNCTIONS, (None, "sw", "hw")
        ):
            want = [
                r for r in window
                if (function is None or r.function == function)
                and (device is None or r.device == device)
                and r.timestamp >= since
            ]
            assert h.records(function, device, since) == want
        counts = {}
        for r in window:
            if r.timestamp >= since:
                counts[r.function] = counts.get(r.function, 0) + 1
        assert h.call_counts(since=since) == counts


class TestModels:
    def make_linear_data(self, slope=3.0, intercept=50.0, n=30):
        rng = np.random.default_rng(0)
        items = rng.integers(10, 10000, size=n)
        x = np.array([kernel_features(int(i)) for i in items])
        y = slope * items + intercept + rng.normal(0, 1.0, size=n)
        return x, y, items

    def test_kernel_features_validation(self):
        with pytest.raises(ValueError):
            kernel_features(0)
        f = kernel_features(100, 400, 400)
        assert f.shape == (4,)
        assert f[2] == 800.0

    def test_linear_model_recovers_trend(self):
        x, y, items = self.make_linear_data()
        m = LinearModel().fit(x, y)
        pred = m.predict_one(kernel_features(5000))
        assert pred == pytest.approx(3.0 * 5000 + 50.0, rel=0.05)

    def test_linear_model_validation(self):
        with pytest.raises(ValueError):
            LinearModel(alpha=-1)
        m = LinearModel()
        with pytest.raises(RuntimeError):
            m.predict_one(kernel_features(10))
        with pytest.raises(ValueError):
            m.fit(np.zeros((1, 4)), np.zeros(1))  # too few samples

    def test_pca_regressor(self):
        x, y, _ = self.make_linear_data()
        m = PcaRegressor(components=2).fit(x, y)
        pred = m.predict_one(kernel_features(5000))
        assert pred == pytest.approx(3.0 * 5000 + 50.0, rel=0.10)
        with pytest.raises(ValueError):
            PcaRegressor(components=0)
        with pytest.raises(RuntimeError):
            PcaRegressor().predict_one(kernel_features(10))

    def test_knn_interpolates(self):
        x = np.array([kernel_features(i) for i in (10, 20, 30)])
        y = np.array([100.0, 200.0, 300.0])
        m = KnnPredictor(k=1).fit(x, y)
        assert m.predict_one(kernel_features(21)) == pytest.approx(200.0)
        with pytest.raises(ValueError):
            KnnPredictor(k=0)


class TestDeviceSelector:
    def filled_history(self, sw_slope=10.0, hw_slope=1.0, n=20):
        h = ExecutionHistory()
        rng = np.random.default_rng(1)
        for _ in range(n):
            items = int(rng.integers(100, 10000))
            h.append(rec("f", "sw", items=items, latency=sw_slope * items + 500))
            h.append(rec("f", "hw", items=items, latency=hw_slope * items + 2000))
        return h

    def test_abstains_when_cold(self):
        sel = DeviceSelector(min_samples=5)
        sel.train(ExecutionHistory())
        assert sel.choose_device("f", 100) is None
        assert sel.predict_latency("f", "sw", 100) is None

    def test_chooses_hw_for_large_calls(self):
        sel = DeviceSelector(min_samples=5)
        sel.train(self.filled_history())
        assert sel.choose_device("f", 50000) == "hw"

    def test_chooses_sw_for_tiny_calls(self):
        # hw has a big fixed overhead (2000) vs sw (500)
        sel = DeviceSelector(min_samples=5)
        sel.train(self.filled_history())
        assert sel.choose_device("f", 10) == "sw"

    def test_prediction_accuracy(self):
        sel = DeviceSelector(min_samples=5)
        sel.train(self.filled_history())
        pred = sel.predict_latency("f", "sw", 4000)
        assert pred == pytest.approx(10.0 * 4000 + 500, rel=0.10)

    def test_pca_variant_trains(self):
        sel = DeviceSelector(min_samples=5, use_pca=True)
        trained = sel.train(self.filled_history())
        assert trained == 4  # latency+energy x two devices
        # query inside the training range (PCA+log extrapolates poorly)
        assert sel.choose_device("f", 9000) == "hw"

    def test_energy_weight_validation(self):
        sel = DeviceSelector()
        sel.train(self.filled_history())
        with pytest.raises(ValueError):
            sel.choose_device("f", 100, energy_weight=2.0)

    def test_sample_counts(self):
        sel = DeviceSelector(min_samples=5)
        sel.train(self.filled_history(n=7))
        assert sel.sample_counts("f") == {"sw": 7, "hw": 7}
        assert sel.sample_counts("missing") == {"sw": 0, "hw": 0}

    def test_min_samples_validation(self):
        with pytest.raises(ValueError):
            DeviceSelector(min_samples=1)


def _fold(values):
    """The brute-force reference: a plain left-to-right float fold."""
    total = 0
    for v in values:
        total = total + v
    return total


@seed(19)
@settings(max_examples=80, deadline=None)
@given(
    capacity=st.integers(1, 6),
    ordered=st.lists(_records, max_size=24),
    late=st.one_of(st.none(), st.tuples(_records, st.integers(0, 24))),
    sinces=st.lists(st.floats(-1.0, 11.0, allow_nan=False), max_size=3),
)
def test_running_folds_match_a_left_to_right_fold(capacity, ordered, late, sinces):
    """After every append -- through capacity eviction and one optional
    out-of-order append -- the O(1) means and the in-place ``since=``
    counts equal a brute-force left-to-right fold over ``records()``."""
    appended = sorted(ordered, key=lambda r: r.timestamp)
    if late is not None:
        record, at = late
        at = min(at, len(appended))
        floor = appended[at - 1].timestamp if at else 0.0
        # older than its predecessor, if any: the ordered regime ends
        appended.insert(at, record._replace(timestamp=floor - 1.0))
    h = ExecutionHistory(capacity=capacity)
    for r in appended:
        h.append(r)
        log = h.records()
        for function in _FUNCTIONS:
            for device in (None, "sw", "hw"):
                match = [
                    r for r in log
                    if r.function == function and (device is None or r.device == device)
                ]
                want_lat = _fold([r.latency_ns for r in match]) / len(match) if match else None
                want_en = _fold([r.energy_pj for r in match]) / len(match) if match else None
                assert h.mean_latency(function, device) == want_lat
                assert h.mean_energy(function, device) == want_en
            for since in [None, *_SINCES[1:], *sinces]:
                window = [
                    r for r in log
                    if r.function == function
                    and (since is None or r.timestamp >= since)
                ]
                want = _fold([r.items for r in window]) / len(window) if window else None
                assert h.mean_items(function, since=since) == want
        for since in [None, *_SINCES[1:], *sinces]:
            counts = {}
            for r in log:
                if since is None or r.timestamp >= since:
                    counts[r.function] = counts.get(r.function, 0) + 1
            assert h.call_counts(since=since) == counts


def test_means_build_no_list_while_ordered_and_not_full(monkeypatch):
    """Outside the capacity-full regime a mean reads the running folds:
    it never refolds a bucket (which would walk its records)."""
    from repro.core.runtime import history as history_module

    h = ExecutionHistory(capacity=4)
    for i in range(3):
        h.append(rec("f", "sw", latency=100.0 * (i + 1), t=float(i)))

    def refold(bucket):
        raise AssertionError("refolded a bucket that was never evicted")

    monkeypatch.setattr(history_module._Bucket, "refold", refold)
    assert h.mean_latency("f", "sw") == 200.0
    assert h.mean_energy("f") == 10.0
    assert h.mean_items("f") == 100.0
    h.append(rec("f", "sw", latency=400.0, t=3.0))
    h.append(rec("f", "sw", latency=500.0, t=4.0))     # evicts: refold due
    with pytest.raises(AssertionError):
        h.mean_latency("f", "sw")
