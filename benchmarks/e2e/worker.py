"""One fresh measurement process of the end-to-end benchmark.

``run.py`` starts this file once per run; it is the only load
generator.  It drives a closed loop -- each item starts when the
previous one has been checked -- through three phases:

1. set-up: imports, then the first warm-up item; ``setup-done`` is
   printed the moment its report exists, and the parent times that line;
2. the remaining untimed warm-up items;
3. the timed phase: exactly ``--passes`` whole passes over the same
   ``--items`` inputs.  The simulated metrics come from the first pass;
   every run is checked.

Host times are reported on a *reference clock*.  On a shared host the
CPU speed a process gets swings by a quarter within seconds, and can
drop by 40% for a minute or more; the simulator and any other
pure-Python code slow down together.  So every measured interval is scaled by a fixed
pure-Python loop timed next to it (:func:`reference_s`), with one loop
defined as :data:`REFERENCE_S`.  An item's time is then its fastest run
across passes, which filters what the loop does not track.

With ``--mode trace`` the timed items run under cProfile (enabled only
around each item's run and report spans) and the worker writes a
Chrome/Perfetto trace plus the per-layer fold.  Processes forked while
the profiler runs (the P=2 partitions of sharded items) drop the
inherited profile hook, so partition work runs at full speed and is not
profiled.  With ``--mode probe``
it stops after set-up.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: iterations of the reference loop: about 1 ms on an uncontended
#: 2.0 GHz Xeon vCPU under CPython 3.11
REFERENCE_LOOPS = 17_500
#: the reference clock: one reference loop counts as exactly this long
REFERENCE_S = 1e-3


def reference_s() -> float:
    """Host seconds one fixed pure-Python loop takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _load_expected(workload: str, seed: int) -> list:
    path = HERE / "expected.json"
    if not path.is_file():
        return []
    return json.loads(path.read_text()).get(workload, {}).get(str(seed), [])


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--items", type=int, required=True)
    p.add_argument("--passes", type=int, required=True)
    p.add_argument("--warmup", type=int, required=True)
    p.add_argument("--mode", choices=("run", "trace", "probe"), default="run")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads as W

    attempted = failed = 0
    failures = []
    prev_text = {}

    def one(item, timed_hook=None, pinned=None):
        """Run, serialise and check one item; returns (run_s, report_s, summary)."""
        nonlocal attempted, failed
        attempted += 1
        summary = None
        problems = []
        t0 = time.perf_counter()
        try:
            if timed_hook:
                timed_hook(True)
            report = W.execute(item)
            t1 = time.perf_counter()
            text = W.canonical(item, report)
            t2 = time.perf_counter()
            if timed_hook:
                timed_hook(False)
            problems = W.check(item, report)
            summary = W.summarize(item, report)
            summary["digest"] = W.digest(text)
            if pinned is not None and summary["digest"] != pinned:
                problems.append(f"report digest {summary['digest'][:12]} != pinned {pinned[:12]}")
            if item.kind.startswith("shard-"):
                # the P=1 and P=2 runs of one input must agree byte for byte
                key = (item.spec, item.seed)
                other = prev_text.pop(key, None)
                if other is None:
                    prev_text[key] = text
                elif other != text:
                    problems.append("P=1 and P=2 reports differ")
        except Exception:
            if timed_hook:
                timed_hook(False)
            t1 = t2 = time.perf_counter()
            problems = ["raised:\n" + traceback.format_exc()]
        if problems:
            failed += 1
            failures.append(f"{item.workload}#{item.index} ({item.kind}): " + "; ".join(problems))
        return t1 - t0, t2 - t1, summary

    one(W.generate(args.workload, args.seed, 0, warmup=True))
    print("setup-done", flush=True)
    # the parent times set-up; this converts its seconds to the reference clock
    setup_scale = REFERENCE_S / statistics.median(reference_s() for _ in range(5))
    if args.mode == "probe":
        print(json.dumps({"attempted": attempted, "failed": failed,
                          "failures": failures, "setup_scale": setup_scale}))
        return 0
    for i in range(1, args.warmup):
        one(W.generate(args.workload, args.seed, i, warmup=True))

    profiler = None
    hook = None
    if args.mode == "trace":
        import cProfile

        profiler = cProfile.Profile()
        # a forked child would otherwise keep profiling, at profiler speed,
        # into a profile nobody reads
        os.register_at_fork(after_in_child=lambda: sys.setprofile(None))

        def hook(on: bool) -> None:
            (profiler.enable if on else profiler.disable)()

    items = [W.generate(args.workload, args.seed, i) for i in range(args.items)]
    pinned = _load_expected(args.workload, args.seed)
    best = [float("inf")] * args.items
    first = [0.0] * args.items
    summaries = [None] * args.items
    spans = []
    origin = time.perf_counter()
    for n in range(args.passes):
        for i, item in enumerate(items):
            before = reference_s()
            start = time.perf_counter()
            run_s, report_s, summary = one(item, hook, pinned[i] if i < len(pinned) else None)
            scale = REFERENCE_S / ((before + reference_s()) / 2)
            best[i] = min(best[i], (run_s + report_s) * scale)
            spans.append((item, start - origin, run_s, report_s))
            if n == 0:
                first[i] = (run_s + report_s) * scale
                summaries[i] = summary

    # an item that raised on every run has no time
    timed = [(item, s) for item, s in zip(items, best) if s != float("inf")]
    if not timed:
        print("\n".join(failures), file=sys.stderr)
        return 1
    partitions = {1: 0.0, 2: 0.0}
    for item, s in timed:
        if item.kind.startswith("shard-"):
            partitions[item.partitions] += s
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "setup_scale": setup_scale,
        "item_s": [s for _, s in timed],
        "first_pass_s": first,
        "work": sum(s["work"] for s in summaries if s is not None),
        "rss_mb": _rss_mb(),
        "sim": W.sim_metrics([s for s in summaries if s is not None]),
        "digests": [s and s["digest"] for s in summaries],
        "shard_s": partitions,
    }
    if profiler is not None:
        result["profile"] = _write_trace(args, W, profiler, spans)
    print(json.dumps(result))
    return 0


def _write_trace(args, W, profiler, spans) -> dict:
    """Write ``<workload>.trace.json`` and ``<workload>.layers.json``."""
    import pstats

    import layers as L
    import repro

    stats = pstats.Stats(profiler).stats
    resolve = L.layer_resolver(os.path.dirname(repro.__file__), str(HERE))
    folded = L.fold(stats, resolve)
    total = sum(entry[2] for entry in stats.values())
    layer_sum = sum(v["self_s"] for v in folded.values())

    events = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": f"e2e {args.workload} seed {args.seed} (host time)"}},
    ]
    for item, start, run_s, report_s in spans:
        ts = start * 1e6
        label = {"kind": item.kind, "index": item.index, "seed": item.seed}
        events.append({"name": f"item {item.index}", "cat": "item", "ph": "X",
                       "pid": 1, "tid": 1, "ts": ts, "dur": (run_s + report_s) * 1e6,
                       "args": label})
        events.append({"name": "run", "cat": "run", "ph": "X", "pid": 1, "tid": 1,
                       "ts": ts, "dur": run_s * 1e6, "args": label})
        events.append({"name": "report", "cat": "report", "ph": "X", "pid": 1,
                       "tid": 1, "ts": ts + run_s * 1e6, "dur": report_s * 1e6,
                       "args": label})

    out = HERE / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.workload}.trace.json").write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
    )
    profile = {
        "total_s": total,
        "layer_sum_s": layer_sum,
        "layers": {
            name: {
                "self_s": v["self_s"],
                "share": v["self_s"] / total if total else 0.0,
                "calls_in": v["calls_in"],
            }
            for name, v in folded.items()
        },
        "bringup_cum_s": L.cumulative(stats, "repro/core/compute_node.py", "__init__"),
    }
    (out / f"{args.workload}.layers.json").write_text(json.dumps(
        dict(profile, workload=args.workload, seed=args.seed,
             items=len(spans), top=L.top_functions(stats, resolve)),
        indent=1, sort_keys=True,
    ))
    return profile


if __name__ == "__main__":
    sys.exit(main())
