"""CLAIM-MODEL: input-dependent execution models (Section 4.2).

"We will specifically develop input-dependent models of execution time
and energy to select the best device to execute a function ... using an
array of regression, SVM and PCA techniques."

The bench trains the ridge and PCA selectors on a warm-up run's
Execution History and checks (1) prediction error is small, (2) device
choices match an exact-latency oracle almost always.
"""

import numpy as np
import pytest

from conftest import print_table
from repro.core.runtime import (
    DeviceSelector,
    ExecutionHistory,
    kernel_features,
)

# ground-truth device behaviours (ns): hw has high fixed cost, low slope
SW = lambda n: 12.0 * n + 800.0
HW = lambda n: 1.5 * n + 25_000.0
CROSSOVER = (25_000.0 - 800.0) / (12.0 - 1.5)  # ~2305 items


def build_history(rng, samples=60, noise=0.03):
    hist = ExecutionHistory()
    for _ in range(samples):
        n = int(rng.integers(64, 50_000))
        for device, fn in (("sw", SW), ("hw", HW)):
            latency = fn(n) * (1.0 + rng.normal(0, noise))
            hist.record(
                function="kern", device=device, worker=0, items=n,
                latency_ns=max(1.0, latency), energy_pj=latency * 0.5,
                timestamp=0.0,
            )
    return hist


def evaluate_selector(use_pca, rng):
    selector = DeviceSelector(min_samples=5, use_pca=use_pca)
    selector.train(build_history(rng))
    test_sizes = [100, 500, 1000, 2000, 3000, 5000, 10_000, 40_000]
    errors = []
    agreement = 0
    for n in test_sizes:
        pred_sw = selector.predict_latency("kern", "sw", n)
        pred_hw = selector.predict_latency("kern", "hw", n)
        errors.append(abs(pred_sw - SW(n)) / SW(n))
        errors.append(abs(pred_hw - HW(n)) / HW(n))
        oracle = "sw" if SW(n) < HW(n) else "hw"
        if selector.choose_device("kern", n) == oracle:
            agreement += 1
    return {
        "mape": float(np.mean(errors)),
        "agreement": agreement / len(test_sizes),
        "sizes": len(test_sizes),
    }


def test_claim_models_predict_and_select(benchmark):
    def run():
        # one seeded stream per evaluation: ridge trains on its first
        # draws, PCA on the next, whatever the benchmark's round count
        rng = np.random.default_rng(42)
        return {
            "ridge": evaluate_selector(False, rng),
            "pca": evaluate_selector(True, rng),
        }

    results = benchmark(run)
    assert run() == results
    print_table(
        "CLAIM-MODEL: predictor quality vs exact-latency oracle",
        ["model", "MAPE", "oracle agreement"],
        [
            (name, f"{r['mape']:.1%}", f"{r['agreement']:.0%}")
            for name, r in results.items()
        ],
    )
    for r in results.values():
        assert r["mape"] < 0.10           # within 10% on average
        assert r["agreement"] >= 0.875    # at most one miss near crossover


def test_claim_models_find_the_crossover(benchmark):
    def run():
        selector = DeviceSelector(min_samples=5)
        selector.train(build_history(np.random.default_rng(42)))
        # scan for the predicted crossover point
        last = "sw"
        crossover_at = None
        for n in range(200, 20_000, 100):
            choice = selector.choose_device("kern", n)
            if choice == "hw" and last == "sw":
                crossover_at = n
                break
            last = choice
        return crossover_at

    found = benchmark(run)
    assert run() == found
    print_table(
        "CLAIM-MODEL: device crossover",
        ["", "items"],
        [("true crossover", int(CROSSOVER)), ("model crossover", found)],
    )
    assert found is not None
    assert abs(found - CROSSOVER) / CROSSOVER < 0.25


def test_claim_models_cold_start_abstains(benchmark):
    def run():
        selector = DeviceSelector(min_samples=5)
        hist = ExecutionHistory()
        for i in range(3):  # below min_samples
            hist.record(function="kern", device="sw", worker=0, items=100,
                        latency_ns=1000.0, energy_pj=1.0, timestamp=0.0)
        selector.train(hist)
        return selector.choose_device("kern", 100)

    assert benchmark(run) is None
