"""Self-test of the end-to-end benchmark: ``pytest benchmarks/e2e -q``."""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(*args: str, cwd: Path = ROOT) -> tuple:
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc, proc.stdout.strip().splitlines()


def test_inputs_are_a_function_of_the_seed():
    for w in WORKLOADS:
        first = [workloads.generate(w, 0, i) for i in range(16)]
        assert first == [workloads.generate(w, 0, i) for i in range(16)]
        assert first != [workloads.generate(w, 1, i) for i in range(16)]
        assert first != [workloads.generate(w, 0, i, warmup=True) for i in range(16)]


def test_shapes_are_stratified_and_seed_independent():
    d, other_seed = workloads._Draw("test", 0), workloads._Draw("test", 1)
    for block in range(3):
        index = range(block * workloads.BLOCK, (block + 1) * workloads.BLOCK)
        values = [d.uniform(i, "x", 0.0, 1.0) for i in index]
        assert sorted(int(v * workloads.BLOCK) for v in values) == list(range(workloads.BLOCK))
        assert values == [other_seed.uniform(i, "x", 0.0, 1.0) for i in index]
    a, b = workloads.generate("jobs-dag", 0, 5), workloads.generate("jobs-dag", 1, 5)
    assert [(j.layers, j.width) for j in a.spec.jobs] == [(j.layers, j.width) for j in b.spec.jobs]
    assert [j.graph_seed for j in a.spec.jobs] != [j.graph_seed for j in b.spec.jobs]


def test_smoke_runs_all_workloads_with_the_declared_metrics():
    start = time.perf_counter()
    proc, lines = _run("--smoke")
    assert time.perf_counter() - start < 60
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    for w in WORKLOADS:
        printed = {
            name.split(":", 1)[1]: m["unit"]
            for name, m in result["metrics"].items()
            if name.startswith(w + ":")
        }
        assert printed == declared
        for name, unit in declared.items():
            assert any(line.split()[:1] == [name] and f" {unit}" in line for line in lines)


def test_traced_smoke_reports_the_per_layer_metrics():
    from repro.telemetry import validate_chrome_trace

    proc, lines = _run("--smoke", "--trace", "--workload", "chaos-recover")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(lines[-1])
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    trace = json.loads((HERE / "out" / "chaos-recover.trace.json").read_text())
    assert validate_chrome_trace(trace) > 0
    assert {e["name"] for e in trace["traceEvents"]} >= {"run", "report"}
    assert result["metrics"]["trace.overhead"]["value"] > 0


def test_fold_charges_networkx_to_the_calling_layer():
    pkg = "/src/repro"
    route = (f"{pkg}/interconnect/network.py", 90, "route")
    engine = (f"{pkg}/sim/engine.py", 186, "run")
    search = ("/lib/site-packages/networkx/algorithms/shortest_paths/generic.py", 10, "shortest_path")
    inner = ("/lib/site-packages/networkx/algorithms/shortest_paths/weighted.py", 20, "_dijkstra")
    builtin = ("~", 0, "<built-in method builtins.len>")
    # (cc, nc, tt, ct, callers); caller edges are (nc, cc, tt, ct)
    stats = {
        engine: (1, 1, 0.5, 2.0, {}),
        route: (4, 4, 0.2, 1.2, {engine: (4, 4, 0.2, 1.2)}),
        search: (4, 4, 0.3, 1.0, {route: (4, 4, 0.3, 1.0)}),
        # recursive: part of its time is charged through itself
        inner: (4, 9, 0.6, 0.7, {search: (4, 4, 0.4, 0.7), inner: (5, 0, 0.2, 0.3)}),
        builtin: (30, 30, 0.1, 0.1, {inner: (20, 20, 0.06, 0.06), engine: (10, 10, 0.04, 0.04)}),
    }
    resolve = layers.layer_resolver("/src/repro", str(HERE))
    folded = layers.fold(stats, resolve)
    assert abs(folded["interconnect"]["self_s"] - (0.2 + 0.3 + 0.6 + 0.06)) < 1e-9
    assert abs(folded["sim"]["self_s"] - (0.5 + 0.04)) < 1e-9
    assert folded["other"]["self_s"] < 1e-9
    assert folded["interconnect"]["calls_in"] == 4
    assert abs(sum(v["self_s"] for v in folded.values()) - 1.7) < 1e-9


def test_fold_of_a_real_bringup_keeps_third_party_time_in_repro_layers():
    import repro
    from repro.presets import build_preset_node
    from repro.sim import Simulator

    profiler = cProfile.Profile()
    profiler.enable()
    build_preset_node(Simulator(), "chassis")
    profiler.disable()
    stats = pstats.Stats(profiler).stats
    assert any("networkx" in filename for filename, _, _ in stats)
    resolve = layers.layer_resolver(os.path.dirname(repro.__file__), str(HERE))
    folded = layers.fold(stats, resolve)
    total = sum(entry[2] for entry in stats.values())
    assert abs(sum(v["self_s"] for v in folded.values()) - total) <= 0.02 * total
    assert folded["other"]["self_s"] <= 0.05 * total
    assert layers.cumulative(stats, "repro/core/compute_node.py", "__init__") > 0


def test_without_the_simulator_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, lines = _run("--workload", "jobs-dag", "--seed", "3", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
