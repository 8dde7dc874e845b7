"""End-to-end benchmark of the ECOSCALE simulator.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds T]
                                  [--runs N] [--trace [0|1]] [--smoke]

The workloads and the metric names and units are the ones declared in
``BENCHMARK.json`` (see README.md).  Every measurement is a fresh
process (``worker.py``): set-up is timed several times and reported as a
median, then one process per run drives a closed loop of items and
checks every report.  The end-to-end metrics always come from runs with
the profiler off; ``--trace 1`` adds one profiled process and reports
the per-layer metrics instead.

Host times are on the reference clock described in ``worker.py``: each
interval is scaled by a fixed pure-Python loop timed next to it, so the
numbers stay steady while a shared host's CPU speed swings.

The command prints every metric with its unit, then, as the last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  It
exits 1 if any output check failed and 2 if the program cannot be run
at all (for example when ``src/repro`` is missing).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

# the declared workloads and metrics; reading them needs no repro import,
# so this is safe before the src check
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}

WARMUP_ITEMS = 5
#: distinct timed inputs per run; also the set the simulated metrics cover
ITEMS = 100
#: timed passes over those inputs (an item's time is its fastest run)
PASSES = 2
#: set-up samples per invocation: extra set-up-only processes plus the runs
SETUP_SAMPLES = 5
#: wall-clock limit for one worker process
WORKER_TIMEOUT_S = 170.0


class WorkerError(RuntimeError):
    """A measurement process ended without a result."""


def spawn(workload: str, seed: int, mode: str, warmup: int, items: int,
          passes: int) -> tuple:
    """Run one worker process; returns (set-up seconds, result dict)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--warmup", str(warmup), "--items", str(items), "--passes", str(passes),
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    setup_s, last = None, None
    try:
        for line in proc.stdout:
            if setup_s is None and line.strip() == "setup-done":
                setup_s = time.perf_counter() - start
            elif line.strip():
                last = line
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or setup_s is None or last is None:
        raise WorkerError(f"{workload} {mode} worker exited with code {proc.returncode}")
    return setup_s, json.loads(last)


def _p90(values: list) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(workload: str, args) -> dict:
    """All processes for one workload; returns metrics and check counts."""
    if args.smoke:
        warmup, items, passes = 1, 3, 1
    else:
        warmup, items, passes = WARMUP_ITEMS, ITEMS, PASSES
    setups, runs, attempted, failed, failures = [], [], 0, 0, []

    def tally(result: dict) -> None:
        nonlocal attempted, failed
        attempted += result["attempted"]
        failed += result["failed"]
        failures.extend(result["failures"])

    probes = 0 if (args.smoke or args.trace) else max(0, SETUP_SAMPLES - args.runs)
    for _ in range(probes):
        setup_s, result = spawn(workload, args.seed, "probe", warmup, items, passes)
        setups.append(setup_s * result["setup_scale"])
        tally(result)
    for _ in range(args.runs):
        setup_s, result = spawn(workload, args.seed, "run", warmup, items, passes)
        setups.append(setup_s * result["setup_scale"])
        runs.append(result)
        tally(result)
    if any(r["digests"] != runs[0]["digests"] for r in runs):
        failed += 1
        failures.append(f"{workload}: runs of one seed produced different reports")

    per_run = []
    for r in runs:
        ms = [s * 1e3 for s in r["item_s"]]
        per_run.append({
            "work_per_s": r["work"] / sum(r["item_s"]),
            "item_ms_p50": statistics.median(ms),
            "item_ms_p90": _p90(ms),
            "peak_rss_mb": r["rss_mb"],
        })
    metrics = {"setup_s": statistics.median(setups)}
    for key in per_run[0]:
        metrics[key] = statistics.median(p[key] for p in per_run)
    sim = runs[0]["sim"]
    metrics["sim_makespan_ms"] = sim["sim_makespan_ms"]
    metrics["sim_energy_mj"] = sim["sim_energy_mj"]
    out = {
        "e2e": metrics,
        "items": len(runs[0]["item_s"]),
        "passes": passes,
        "setup_samples": len(setups),
    }

    if args.trace:
        # one profiled pass over the same inputs
        _, traced = spawn(workload, args.seed, "trace", warmup, items, 1)
        tally(traced)
        prof = traced["profile"]
        if abs(prof["layer_sum_s"] - prof["total_s"]) > 0.02 * prof["total_s"]:
            failed += 1
            failures.append(
                f"{workload}: layer self times sum to {prof['layer_sum_s']:.3f} s, "
                f"profile total is {prof['total_s']:.3f} s"
            )
        layer = {}
        for name, v in prof["layers"].items():
            for key in ("self_s", "share", "calls_in"):
                layer[f"{name}.{key}"] = v[key]
        layer["bringup.cum_s"] = prof["bringup_cum_s"]
        # first pass against first pass: both are single runs of each input
        layer["trace.overhead"] = (
            sum(traced["first_pass_s"]) / sum(runs[0]["first_pass_s"])
        )
        layer.update({n: v for n, v in sim.items() if not n.startswith("sim_")})
        p1, p2 = runs[0]["shard_s"]["1"], runs[0]["shard_s"]["2"]
        layer["shard.p1_s"], layer["shard.p2_s"] = p1, p2
        layer["shard.par_speedup"] = p1 / p2 if p2 else 0.0
        out["layer"] = layer

    out.update(attempted=attempted, failed=failed, failures=failures)
    return out


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_table(workload: str, res: dict, trace: bool) -> None:
    print(f"== {workload}: {res['attempted']} item runs checked, {res['failed']} failed")
    for name, value in res["e2e"].items():
        note = ""
        if name.startswith("item_ms") or name == "work_per_s":
            note = f"  (n={res['items']} items, each the fastest of {res['passes']} runs)"
        elif name == "setup_s":
            note = f"  (median of {res['setup_samples']})"
        print(f"  {name:<34s} {_fmt(value):>14s} {UNITS[name]}{note}")
    if trace:
        print(f"  -- per layer (one profiled pass over the {res['items']} items) --")
        for name, value in res["layer"].items():
            print(f"  {name:<34s} {_fmt(value):>14s} {UNITS[name]}")
    for line in res["failures"]:
        print(f"  FAILED {line}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="one workload (default: all four)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=8.0,
                   help=f"accepted for BENCHMARK.json's command line and ignored: the "
                        f"timed phase is always {PASSES} passes over {ITEMS} inputs, so "
                        f"its length does not depend on the host")
    p.add_argument("--runs", type=int, default=1,
                   help="measured processes per workload (metrics are medians)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="also profile one run and report per-layer metrics")
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes: 1 warm-up and 3 timed items per workload")
    args = p.parse_args(argv)
    if args.runs < 1:
        p.error("--runs must be at least 1")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args)
            print_table(name, results[name], bool(args.trace))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics = {}
    for name, res in results.items():
        values = res["layer"] if args.trace else res["e2e"]
        for metric, value in values.items():
            key = metric if len(results) == 1 else f"{name}:{metric}"
            metrics[key] = {"value": value, "unit": UNITS[metric]}
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
