"""Unit tests for presets and the CLI."""

import pytest

from repro.cli import build_parser, main
from repro.presets import (
    board_node,
    chassis_node,
    compiled_suite,
    exascale_machine,
    hpc_worker,
    petascale_machine,
    standard_kernel_suite,
    zynq_worker,
)
from repro.presets import testbench_machine as _testbench_machine


class TestPresets:
    def test_worker_presets_differ(self):
        z, h = zynq_worker(), hpc_worker()
        assert h.cpu_cores > z.cpu_cores
        assert h.dram.bandwidth_gbps > z.dram.bandwidth_gbps
        assert h.fabric_regions > z.fabric_regions

    def test_node_presets(self):
        b = board_node()
        c = chassis_node()
        assert c.num_workers > b.num_workers
        assert c.intra_fanout is not None

    def test_machine_presets_scale(self):
        from repro.core import Machine
        from repro.sim import Simulator

        small = Machine(Simulator(), _testbench_machine())
        peta = Machine(Simulator(), petascale_machine())
        assert peta.total_workers > small.total_workers
        # exascale preset is structurally valid (don't build all 64 nodes)
        exa = exascale_machine()
        assert exa.num_nodes == 64
        product = 1
        for f in exa.inter_node_fanouts:
            product *= f
        assert product == 64

    def test_kernel_suite_complete(self):
        names = {k.name for k in standard_kernel_suite()}
        assert names == {
            "vecadd", "saxpy", "stencil5", "matmul", "fir32",
            "montecarlo", "cart_split",
        }

    def test_compiled_suite(self):
        registry, library = compiled_suite(max_variants=1)
        for kernel in standard_kernel_suite():
            assert kernel.name in registry
            assert kernel.name in library


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        for cmd in ("info", "machine", "power", "demo"):
            args = parser.parse_args([cmd])
            assert args.command == cmd

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro.core" in out

    def test_machine(self, capsys):
        assert main(["machine", "--nodes", "2", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "max worker-to-worker hop distance" in out

    @pytest.mark.parametrize("flags", [
        ["--nodes", "0"],
        ["--workers", "-1"],
        ["--intra-fanout", "0"],
        ["--intra-fanout", "-1"],
    ])
    def test_machine_bad_shape_is_a_usage_error(self, capsys, flags):
        assert main(["machine"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("repro machine: error:") and "\n" not in err

    def test_power(self, capsys):
        assert main(["power"]) == 0
        out = capsys.readouterr().out
        assert "Tianhe-2" in out and "MW" in out

    def test_demo(self, capsys):
        assert main(["demo", "--workers", "2", "--layers", "2", "--width", "4"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_experiment_unknown_id(self, capsys):
        assert main(["experiment", "NOPE"]) == 2
        out = capsys.readouterr().out
        assert "unknown experiment" in out
        assert "CLAIM-COMPRESS" in out

    def test_experiment_runs_bench(self):
        # the cheapest experiment end to end through the CLI wrapper
        assert main(["experiment", "claim-gw"]) == 0


class TestTelemetryCommands:
    def test_cli_preset_choices_match_registry(self):
        """The hardcoded argparse choices must track NODE_PRESETS."""
        from repro.cli import build_parser
        from repro.presets import NODE_PRESETS

        parser = build_parser()
        args = parser.parse_args(["trace", "mini"])
        assert args.preset == "mini"
        sub = next(
            a for a in parser._subparsers._group_actions[0].choices["trace"]._actions
            if a.dest == "preset"
        )
        assert sorted(sub.choices) == sorted(NODE_PRESETS)

    def test_trace_rejects_unknown_preset_before_running(self):
        with pytest.raises(SystemExit):
            main(["trace", "no-such-preset"])

    def test_trace_writes_valid_outputs(self, tmp_path, capsys):
        import json

        from repro.telemetry import validate_chrome_trace, validate_event

        trace = tmp_path / "t.json"
        events = tmp_path / "e.json"
        rc = main([
            "trace", "mini", "--layers", "2", "--width", "4",
            "--out", str(trace), "--events-out", str(events),
        ])
        assert rc == 0
        assert validate_chrome_trace(trace.read_text()) > 0
        for ev in json.loads(events.read_text()):
            validate_event(ev)

    def test_metrics_csv_to_stdout(self, capsys):
        rc = main(["metrics", "mini", "--layers", "2", "--width", "4",
                   "--format", "csv"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if "," in l]
        assert lines[0] == "metric,value"
        # metric names are clean single-comma rows (link names sanitized)
        for line in lines[1:]:
            name, value = line.split(",")
            float(value)


class TestJobsCommand:
    def test_cli_job_preset_choices_match_registry(self):
        """The hardcoded argparse choices must track JOB_PRESETS."""
        from repro.cli import build_parser
        from repro.presets import JOB_PRESETS

        parser = build_parser()
        args = parser.parse_args(["jobs", "mini"])
        assert args.preset == "mini"
        sub = next(
            a for a in parser._subparsers._group_actions[0].choices["jobs"]._actions
            if a.dest == "preset"
        )
        assert sorted(sub.choices) == sorted(JOB_PRESETS)

    def test_jobs_rejects_unknown_preset_before_running(self):
        with pytest.raises(SystemExit):
            main(["jobs", "no-such-mix"])

    def test_jobs_writes_valid_machine_report(self, tmp_path, capsys):
        import json

        out = tmp_path / "jobs.json"
        assert main(["jobs", "mini", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert len(report["jobs"]) == 3
        assert report["tasks"] == sum(j["tasks"] for j in report["jobs"])
        assert report["tasks_unrecovered"] == 0
        text = capsys.readouterr().out
        assert "fairness" in text and "greedy-hw" in text

    def test_jobs_out_is_the_pinned_multi_tenant_report(self, tmp_path):
        """The mini mix's ``--out`` file holds the keys and values of
        ``run_jobs_experiment("mini", seed=0).json()``, whose bytes
        ``tests/test_report_digests.py`` pins, so two runs cannot
        differ.  The report must be fully multi-tenant."""
        import json

        from repro.experiments import run_jobs_experiment

        out = tmp_path / "jobs.json"
        assert main(["jobs", "mini", "--seed", "0", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report == json.loads(run_jobs_experiment("mini", seed=0).json())
        jobs = report["jobs"]
        assert len(jobs) >= 3, "mini mix should run >= 3 concurrent jobs"
        assert len({j["policy"] for j in jobs}) >= 3, "policies not distinct"
        assert report["tasks"] == sum(j["tasks"] for j in jobs)
        assert report["tasks_unrecovered"] == 0, "a job lost tasks"
        assert 0.0 < report["fairness_index"] <= 1.0


class TestServeCommand:
    def test_cli_serve_preset_choices_match_registry(self):
        """The hardcoded argparse choices must track SERVING_PRESETS."""
        from repro.cli import build_parser
        from repro.presets import SERVING_PRESETS

        parser = build_parser()
        args = parser.parse_args(["serve", "--preset", "flash-crowd"])
        assert args.preset == "flash-crowd"
        sub = next(
            a for a in parser._subparsers._group_actions[0].choices["serve"]._actions
            if a.dest == "preset"
        )
        assert sorted(sub.choices) == sorted(SERVING_PRESETS)

    def test_serve_rejects_unknown_preset_before_running(self):
        with pytest.raises(SystemExit):
            main(["serve", "--preset", "no-such-scenario"])

    def test_serve_writes_valid_report(self, tmp_path, capsys):
        import json

        out = tmp_path / "serve.json"
        assert main(["serve", "--preset", "steady", "--seed", "7",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["offered"] == report["admitted"] + report["shed"]
        assert report["unrecovered"] == 0
        assert report["autoscaler"]["regions_configured"] >= 1
        for tenant in report["tenants"].values():
            for key in ("p50", "p95", "p99"):
                assert key in tenant["latency_ns"]
        text = capsys.readouterr().out
        assert "autoscaler" in text and "goodput" in text

    def test_serve_out_is_the_pinned_flash_crowd_report(self, tmp_path):
        """The flash-crowd ``--out`` file holds the keys and values of
        ``run_serving_experiment("flash-crowd", seed=7).json()``, whose
        bytes ``tests/test_report_digests.py`` pins, so two runs cannot
        differ.  The crowd must be shed, lossless and elastic."""
        import json

        from repro.serving import run_serving_experiment

        out = tmp_path / "serve.json"
        assert main(["serve", "--preset", "flash-crowd", "--seed", "7",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report == json.loads(
            run_serving_experiment("flash-crowd", seed=7).json()
        )
        assert report["offered"] == report["admitted"] + report["shed"]
        assert report["unrecovered"] == 0, "admitted requests were lost"
        assert report["shed"] > 0, "the flash crowd should force shedding"
        assert report["autoscaler"]["regions_configured"] >= 1
        for tenant in report["tenants"].values():
            for key in ("p50", "p95", "p99"):
                assert key in tenant["latency_ns"]
            assert 0.0 <= tenant["shed_rate"] <= 1.0


class TestChaosCommand:
    def test_chaos_events_out_is_the_pinned_seed42_report(self, tmp_path):
        """The ``--events-out`` file is the indented form of
        ``run_chaos_experiment("mini", seed=42).events_json()``, whose
        bytes ``tests/test_report_digests.py`` pins, so two runs cannot
        differ.  Faults must be injected and every task must heal."""
        import json

        from repro.chaos import run_chaos_experiment

        out = tmp_path / "chaos.json"
        assert main(["chaos", "mini", "--seed", "42",
                     "--events-out", str(out)]) == 0
        text = out.read_text()
        assert text == run_chaos_experiment("mini", seed=42).events_json(indent=2)
        report = json.loads(text)
        assert report["integrity_ok"], "chaos run lost tasks"
        assert report["faults_injected"] > 0, "no faults were injected"
        assert report["chaos"]["tasks_unrecovered"] == 0


class TestShardedCommands:
    @pytest.mark.parametrize("argv, out_flag", [
        (["jobs", "mini"], "--out"),
        (["serve", "--preset", "steady"], "--out"),
        (["chaos", "mini"], "--events-out"),
    ])
    def test_report_bytes_identical_at_1_and_4_partitions(
        self, tmp_path, argv, out_flag
    ):
        """The CLI's sharded report file is the same bytes whether the
        4-node machine runs in one partition or four."""
        blobs = []
        for partitions in (1, 4):
            out = tmp_path / f"p{partitions}.json"
            assert main(argv + ["--seed", "0", "--nodes", "4",
                                "--partitions", str(partitions),
                                out_flag, str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        assert b'"repro-shard-' in blobs[0]


class TestBenchCommand:
    def test_unknown_benchmark_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--quick", "--only", "sim.engin"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_only_runs_the_named_benchmark(self, tmp_path):
        import json

        out = tmp_path / "bench.json"
        assert main(["bench", "--quick", "--only", "sim.engine",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert list(payload["benchmarks"]) == ["sim.engine"]
