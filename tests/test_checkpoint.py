"""Tests for checkpoint/restart: interval math, the snapshot format,
the on-disk store, clock warping, completed-task filtering in the job
drivers, the CheckpointManager cadence loop, and the two chaos-layer
experiments (kill-and-restore, MTBF x interval Daly sweep)."""

import json
import random

import pytest

from repro.apps.taskgraph import make_layered_dag
from repro.chaos import (
    restore_from_snapshot,
    run_checkpoint_interval_sweep,
    run_checkpoint_restore_experiment,
    workload_spec,
)
from repro.chaos.checkpoint_experiment import build_workload
from repro.core.runtime import (
    CheckpointManager,
    JobManager,
    CheckpointPolicy,
    JobProgress,
    SNAPSHOT_FORMAT_VERSION,
    Snapshot,
    SnapshotStore,
    daly_interval_ns,
    restore_rngs,
    young_interval_ns,
)
from repro.experiments import build_engine
from repro.presets import compiled_suite
from repro.sim import SimulationError, Simulator


@pytest.fixture(scope="module")
def compiled():
    return compiled_suite(max_variants=1)


# ----------------------------------------------------------------------
# Young / Daly interval math
# ----------------------------------------------------------------------
class TestIntervalMath:
    def test_young_first_order(self):
        assert young_interval_ns(5_000.0, 1e6) == pytest.approx(100_000.0)

    def test_daly_below_young(self):
        # higher-order correction minus the cost lands just under Young
        daly = daly_interval_ns(5_000.0, 1e6)
        assert daly == pytest.approx(96_694.44, rel=1e-4)
        assert daly < young_interval_ns(5_000.0, 1e6)

    def test_daly_expensive_checkpoint_degenerates_to_mtbf(self):
        assert daly_interval_ns(2e6, 1e6) == 1e6
        assert daly_interval_ns(5e6, 1e6) == 1e6

    def test_rejects_non_positive_inputs(self):
        for fn in (young_interval_ns, daly_interval_ns):
            with pytest.raises(ValueError):
                fn(0.0, 1e6)
            with pytest.raises(ValueError):
                fn(1e3, -1.0)


class TestCheckpointPolicy:
    def test_fixed_mode_needs_interval(self):
        with pytest.raises(ValueError):
            CheckpointPolicy()
        with pytest.raises(ValueError):
            CheckpointPolicy(interval_ns=-5.0)
        assert CheckpointPolicy(interval_ns=1_000.0).effective_interval_ns() == 1_000.0

    def test_daly_mode_needs_mtbf(self):
        with pytest.raises(ValueError):
            CheckpointPolicy(mode="daly")
        with pytest.raises(ValueError):
            CheckpointPolicy(mode="unknown")

    def test_daly_mode_uses_measured_cost(self):
        policy = CheckpointPolicy(
            mode="daly", mtbf_ns=1e6, checkpoint_cost_ns=5_000.0
        )
        # before any measurement: configured cost feeds the formula
        assert policy.effective_interval_ns() == pytest.approx(
            daly_interval_ns(5_000.0, 1e6)
        )
        # once measured, the real cost wins
        assert policy.effective_interval_ns(20_000.0) == pytest.approx(
            daly_interval_ns(20_000.0, 1e6)
        )


# ----------------------------------------------------------------------
# the snapshot format
# ----------------------------------------------------------------------
def _sample_snapshot():
    rng = random.Random(7)
    rng.random()
    version, internal, gauss_next = rng.getstate()
    return Snapshot(
        seq=3,
        taken_at_ns=123_456.0,
        workload={"kind": "chaos-jobs", "preset": "mini", "seed": 0},
        jobs=[
            JobProgress(
                job_id=0,
                policy="greedy-hw",
                priority=2,
                dataflow=False,
                total_tasks=4,
                completed=[0, 2],
                signature=[["saxpy", 64, 0]],
            )
        ],
        fabric=[{"worker": 0, "region": 1, "function": "saxpy", "module": "m"}],
        rng={"arrivals": [version, list(internal), gauss_next]},
        checkpoint_cost_ns=5_000.0,
    )


class TestSnapshotFormat:
    def test_json_round_trip_is_byte_identical(self):
        snap = _sample_snapshot()
        text = snap.to_json(indent=2)
        again = Snapshot.from_json(text)
        assert again.to_json(indent=2) == text
        assert again.taken_at_ns == snap.taken_at_ns
        assert again.job(0).completed == [0, 2]

    def test_rejects_other_format_versions(self):
        data = _sample_snapshot().to_dict()
        data["format_version"] = SNAPSHOT_FORMAT_VERSION + 1
        with pytest.raises(ValueError):
            Snapshot.from_dict(data)
        with pytest.raises(ValueError):
            Snapshot.from_dict({"seq": 0, "taken_at_ns": 0.0})

    def test_progress_accessors(self):
        snap = _sample_snapshot()
        assert snap.tasks_completed == 2
        assert snap.job(99) is None
        assert not snap.jobs[0].finished

    def test_restore_rngs_realigns_streams(self):
        source = random.Random(7)
        source.random()                      # advance past the seed state
        snap = _sample_snapshot()
        restored = restore_rngs(snap)["arrivals"]
        assert [restored.random() for _ in range(5)] == [
            source.random() for _ in range(5)
        ]


class TestSnapshotStore:
    def test_save_list_load_latest(self, tmp_path):
        store = SnapshotStore(tmp_path / "ckpts")
        for seq in range(3):
            snap = _sample_snapshot()
            snap.seq = seq
            snap.taken_at_ns = 1_000.0 * seq
            store.save(snap)
        paths = store.list()
        assert [p.name for p in paths] == [
            "ckpt-00000.json", "ckpt-00001.json", "ckpt-00002.json"
        ]
        assert store.load_latest().seq == 2
        assert store.load(paths[0]).taken_at_ns == 0.0

    def test_prune_keeps_the_newest(self, tmp_path):
        store = SnapshotStore(tmp_path)
        for seq in range(4):
            snap = _sample_snapshot()
            snap.seq = seq
            store.save(snap)
        store.prune(keep=2)
        assert [p.name for p in store.list()] == [
            "ckpt-00002.json", "ckpt-00003.json"
        ]
        store.prune(keep=0)                  # 0 = keep everything
        assert len(store.list()) == 2

    def test_empty_store(self, tmp_path):
        assert SnapshotStore(tmp_path).load_latest() is None


# ----------------------------------------------------------------------
# clock warping on restore
# ----------------------------------------------------------------------
class TestWarpTo:
    def test_warps_an_idle_simulator(self):
        sim = Simulator()
        sim.warp_to(250_000.0)
        assert sim.now == 250_000.0

    def test_cannot_warp_backwards(self):
        sim = Simulator()
        sim.warp_to(100.0)
        with pytest.raises(SimulationError):
            sim.warp_to(50.0)

    def test_cannot_warp_with_events_pending(self):
        sim = Simulator()
        sim.schedule(10.0, lambda _: None)
        with pytest.raises(SimulationError):
            sim.warp_to(1_000.0)


# ----------------------------------------------------------------------
# completed-task filtering in the job drivers
# ----------------------------------------------------------------------
class TestCompletedFilter:
    def _machine(self, compiled):
        return JobManager(build_engine("mini", compiled=compiled))

    def _graph(self, manager, seed=0):
        return make_layered_dag(
            layers=3,
            width=4,
            num_workers=len(manager.engine.node),
            seed=seed,
        )

    def test_out_of_range_indices_rejected(self, compiled):
        manager = self._machine(compiled)
        graph = self._graph(manager)
        with pytest.raises(ValueError):
            manager.submit_job(graph, completed=frozenset({len(graph.tasks)}))
        with pytest.raises(ValueError):
            manager.submit_job(graph, completed=frozenset({-1}))

    @pytest.mark.parametrize("dataflow", [False, True])
    def test_drivers_skip_completed_tasks(self, compiled, dataflow):
        manager = self._machine(compiled)
        graph = self._graph(manager)
        done = frozenset(range(0, len(graph.tasks), 2))
        handle = manager.submit_job(graph, dataflow=dataflow, completed=done)
        report = manager.run()
        assert handle.tasks_skipped == len(done)
        outcome = report.job(handle.job_id)
        # RunReport.tasks counts the whole graph; the dispatched share
        # is what remains after the skip
        assert outcome.report.tasks == len(graph.tasks)
        assert outcome.report.tasks_unrecovered == 0
        assert handle.finished

    def test_fully_completed_job_runs_nothing(self, compiled):
        manager = self._machine(compiled)
        graph = self._graph(manager)
        handle = manager.submit_job(
            graph, completed=frozenset(range(len(graph.tasks)))
        )
        manager.run()
        assert handle.tasks_skipped == len(graph.tasks)
        assert handle.finished


# ----------------------------------------------------------------------
# the manager's cadence loop
# ----------------------------------------------------------------------
class TestCheckpointManager:
    def test_periodic_capture_and_self_stop(self, compiled):
        workload = workload_spec("mini")
        manager, _ = build_workload(workload, compiled=compiled)
        ckpt = CheckpointManager(
            manager,
            CheckpointPolicy(interval_ns=100_000.0),
            workload=workload,
        )
        ckpt.start()
        report = manager.run()               # cadence loop stops itself
        assert ckpt.snapshots
        assert ckpt.measured_cost_ns == pytest.approx(
            ckpt.policy.checkpoint_cost_ns
        )
        last = ckpt.latest()
        assert last.workload["preset"] == "mini"
        assert 0 < last.tasks_completed <= report.tasks
        # snapshots are strictly ordered recovery points
        seqs = [s.seq for s in ckpt.snapshots]
        assert seqs == sorted(seqs)

    def test_latest_before_picks_the_survivor(self, compiled):
        workload = workload_spec("mini")
        manager, _ = build_workload(workload, compiled=compiled)
        ckpt = CheckpointManager(
            manager, CheckpointPolicy(interval_ns=100_000.0), workload=workload
        )
        ckpt.start()
        manager.run()
        second = ckpt.snapshots[1]
        found = ckpt.latest_before(second.taken_at_ns + 1.0)
        assert found.seq == second.seq
        assert ckpt.latest_before(-1.0) is None

    def test_registered_rng_state_is_captured(self, compiled):
        workload = workload_spec("mini")
        manager, _ = build_workload(workload, compiled=compiled)
        ckpt = CheckpointManager(
            manager, CheckpointPolicy(interval_ns=100_000.0), workload=workload
        )
        rng = random.Random(11)
        ckpt.register_rng("traffic", rng)
        ckpt.start()
        manager.run()
        snap = ckpt.snapshots[0]
        assert "traffic" in snap.rng
        # the snapshot round-trips through JSON with the state intact
        again = Snapshot.from_json(snap.to_json())
        assert restore_rngs(again)["traffic"].random() == rng.random()

    def test_snapshot_retention_cap(self, compiled):
        workload = workload_spec("mini")
        manager, _ = build_workload(workload, compiled=compiled)
        ckpt = CheckpointManager(
            manager,
            CheckpointPolicy(interval_ns=60_000.0, max_snapshots=2),
            workload=workload,
        )
        ckpt.start()
        manager.run()
        assert len(ckpt.snapshots) <= 2


# ----------------------------------------------------------------------
# kill-and-restore: the acceptance experiment
# ----------------------------------------------------------------------
class TestRestoreExperiment:
    def test_rack_kill_restores_with_full_integrity(self, compiled):
        report = run_checkpoint_restore_experiment(
            "mini", seed=0, domain="rack0", compiled=compiled
        )
        assert report.integrity_ok
        assert report.snapshots_taken > 0
        assert report.snapshot_at_ns <= report.kill_ns
        assert report.lost_window_ns > 0
        for verdict in report.verdicts:
            assert verdict.workload_match
            assert verdict.tasks_unrecovered == 0
            assert verdict.checkpointed + verdict.replayed == verdict.total_tasks
        # something was actually skipped AND something actually replayed
        assert sum(v.checkpointed for v in report.verdicts) > 0
        assert sum(v.replayed for v in report.verdicts) > 0

    def test_experiment_is_seed_deterministic(self, compiled):
        a = run_checkpoint_restore_experiment("mini", seed=3, compiled=compiled)
        b = run_checkpoint_restore_experiment("mini", seed=3, compiled=compiled)
        assert a.events_json() == b.events_json()

    def test_restore_refuses_a_mismatched_workload(self, compiled):
        workload = workload_spec("mini")
        manager, _ = build_workload(workload, compiled=compiled)
        ckpt = CheckpointManager(
            manager, CheckpointPolicy(interval_ns=100_000.0), workload=workload
        )
        ckpt.start()
        manager.run()
        snap = ckpt.latest()
        snap.workload["graph_seed"] = snap.workload["graph_seed"] + 99
        with pytest.raises(ValueError, match="signature"):
            restore_from_snapshot(snap, compiled=compiled)

    def test_restore_refuses_foreign_workload_kinds(self, compiled):
        snap = _sample_snapshot()
        snap.workload["kind"] = "serving"
        with pytest.raises(ValueError, match="kind"):
            restore_from_snapshot(snap, compiled=compiled)

    def test_bad_fractions_rejected(self, compiled):
        with pytest.raises(ValueError):
            run_checkpoint_restore_experiment(
                "mini", kill_fraction=0.7, abandon_fraction=0.5,
                compiled=compiled,
            )

    def test_cli_experiment_persists_only_with_explicit_dir(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["checkpoint", "experiment"]) == 0
        assert not (tmp_path / "checkpoints").exists()
        # the default directory's name, given explicitly, still persists
        assert main(["checkpoint", "experiment", "--dir", "checkpoints"]) == 0
        assert sorted((tmp_path / "checkpoints").glob("ckpt-*.json"))

    def test_cli_save_then_restore_finishes_losslessly(self, tmp_path, capsys):
        from repro.cli import main

        store = tmp_path / "ckpts"
        out = tmp_path / "restored.json"
        assert main([
            "checkpoint", "save", "--preset", "mini", "--seed", "42",
            "--until", "400000", "--dir", str(store),
        ]) == 0
        assert sorted(store.glob("ckpt-*.json"))
        assert main([
            "checkpoint", "restore", "--dir", str(store), "--out", str(out),
        ]) == 0
        report = json.loads(out.read_text())
        assert report["tasks_unrecovered"] == 0
        assert len(report["jobs"]) == 2


# ----------------------------------------------------------------------
# MTBF x interval sweep: the Daly validation
# ----------------------------------------------------------------------
class TestIntervalSweep:
    def test_goodput_peaks_at_the_daly_interval(self):
        report = run_checkpoint_interval_sweep(
            seed=0,
            mtbf_list=(2e6, 8e6),
            trials=48,
            measure=False,
            checkpoint_cost_ns=5_000.0,
        )
        assert report.daly_validated
        for optimum in report.optima:
            assert optimum["within_one_step"]
        # extremes of the grid should be visibly worse than the optimum
        for mtbf in (2e6, 8e6):
            row = {
                c["factor"]: c["goodput"]
                for c in report.cells
                if c["mtbf_ns"] == mtbf
            }
            assert row[1.0] > row[0.25]
            assert row[1.0] > row[4.0]

    def test_sweep_is_seed_deterministic(self):
        kwargs = dict(
            seed=5, mtbf_list=(2e6,), trials=16,
            measure=False, checkpoint_cost_ns=5_000.0,
        )
        a = run_checkpoint_interval_sweep(**kwargs)
        b = run_checkpoint_interval_sweep(**kwargs)
        assert a.events_json() == b.events_json()

    def test_cells_cover_the_full_grid(self):
        report = run_checkpoint_interval_sweep(
            seed=0, mtbf_list=(2e6,), trials=8,
            measure=False, checkpoint_cost_ns=5_000.0,
        )
        data = json.loads(report.events_json())
        assert len(data["cells"]) == len(data["factors"])
        assert all(0.0 < c["availability"] <= 1.0 for c in data["cells"])
