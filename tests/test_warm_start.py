"""Tests for machine warm starts: templated bring-up is byte-identical
to cold bring-up across all three batch harnesses, and snapshot paths
pin the topology they were taken on."""

import json

import pytest

from repro.experiments import resolve_warm_start, run_jobs_experiment
from repro.serving import run_serving_experiment


class TestWarmEqualsCold:
    def test_serving_report_is_byte_identical(self):
        cold = run_serving_experiment("steady", seed=0).json(indent=2)
        warm = run_serving_experiment("steady", seed=0, warm_start=True).json(
            indent=2
        )
        assert warm == cold

    def test_jobs_report_is_byte_identical(self):
        cold = run_jobs_experiment("mini", seed=0).json(indent=2)
        warm = run_jobs_experiment("mini", seed=0, warm_start=True).json(indent=2)
        assert warm == cold

    def test_chaos_report_is_byte_identical(self):
        from repro.chaos import run_chaos_experiment
        from repro.presets import compiled_suite

        compiled = compiled_suite(max_variants=1)
        cold = run_chaos_experiment("mini", seed=0, compiled=compiled)
        warm = run_chaos_experiment(
            "mini", seed=0, compiled=compiled, warm_start=True
        )
        assert json.dumps(warm.to_dict(), sort_keys=True) == json.dumps(
            cold.to_dict(), sort_keys=True
        )


class TestSnapshotPinning:
    def write_snapshot(self, tmp_path, workload):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({"workload": workload}))
        return str(path)

    def test_matching_node_preset_primes_the_cache(self, tmp_path):
        path = self.write_snapshot(tmp_path, {"kind": "service-session",
                                              "node": "mini"})
        assert resolve_warm_start(path, "mini") is True

    def test_nodes_list_is_also_consulted(self, tmp_path):
        path = self.write_snapshot(
            tmp_path, {"kind": "service-session", "nodes": ["board", "mini"]}
        )
        assert resolve_warm_start(path, "board") is True

    def test_mismatched_topology_is_an_error_not_a_cold_build(self, tmp_path):
        path = self.write_snapshot(tmp_path, {"kind": "service-session",
                                              "node": "board"})
        with pytest.raises(ValueError, match="refusing to warm-start"):
            resolve_warm_start(path, "mini")

    def test_snapshot_without_topology_is_rejected(self, tmp_path):
        path = self.write_snapshot(tmp_path, {"kind": "service-session"})
        with pytest.raises(ValueError, match="records no node preset"):
            resolve_warm_start(path, "mini")

    def test_bools_pass_through(self):
        assert resolve_warm_start(False, "mini") is False
        assert resolve_warm_start(True, "mini") is True

    def test_harnesses_accept_snapshot_paths(self, tmp_path):
        path = self.write_snapshot(tmp_path, {"kind": "service-session",
                                              "node": "mini"})
        cold = run_jobs_experiment("mini", seed=0).json(indent=2)
        warm = run_jobs_experiment("mini", seed=0, warm_start=path).json(indent=2)
        assert warm == cold
        with pytest.raises(ValueError):
            run_jobs_experiment("board", seed=0, warm_start=path)
