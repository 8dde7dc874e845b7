"""Tests that a warm shape memo changes nothing: every batch harness
writes the same report whether its Compute Nodes derived their shape
fresh (memo cleared) or took it from the memo a previous run filled."""

import json

from repro.core.compute_node import _node_shape
from repro.experiments import run_jobs_experiment
from repro.serving import run_serving_experiment


def cold_then_warm(run):
    """Run ``run`` on an empty shape memo, then again on the filled one."""
    _node_shape.cache_clear()
    cold = run()
    misses = _node_shape.cache_info().misses
    assert misses > 0
    warm = run()
    info = _node_shape.cache_info()
    assert info.misses == misses
    assert info.hits > 0
    return cold, warm


class TestWarmEqualsCold:
    def test_serving_report_is_byte_identical(self):
        cold, warm = cold_then_warm(
            lambda: run_serving_experiment("steady", seed=0).json(indent=2)
        )
        assert warm == cold

    def test_jobs_report_is_byte_identical(self):
        cold, warm = cold_then_warm(
            lambda: run_jobs_experiment("mini", seed=0).json(indent=2)
        )
        assert warm == cold

    def test_chaos_report_is_byte_identical(self):
        from repro.chaos import run_chaos_experiment
        from repro.presets import compiled_suite

        compiled = compiled_suite(max_variants=1)
        cold, warm = cold_then_warm(
            lambda: json.dumps(
                run_chaos_experiment("mini", seed=0, compiled=compiled).to_dict(),
                sort_keys=True,
            )
        )
        assert warm == cold
