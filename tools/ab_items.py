"""Interleaved in-process A/B timing of two source trees over e2e items.

Usage (from the repository root)::

    python tools/ab_items.py OLD_ROOT NEW_ROOT                # jobs-dag, 30 items
    python tools/ab_items.py OLD_ROOT NEW_ROOT --workload serve-ladder \\
        --items 40 --rounds 5 --seed 3

Each ROOT is a checkout of this repository (``src/repro`` and
``benchmarks/e2e/workloads.py``).  Both trees are imported into one
process: each tree's ``repro`` package and its ``workloads`` module are
loaded once, kept aside, and swapped into ``sys.modules`` before that
tree runs, so lazy imports inside a run resolve to the same tree.  The
first ``--items`` timed items of the workload's seeded stream (the
inputs ``benchmarks/e2e/run.py`` times) then run item by item, A and B
back to back in alternating order, ``--rounds`` times each.  An item's
time is its fastest round (run plus canonical report).

The output gives each tree's median item time and the median and
quartiles over items of the per-item ratio ``B / A``; a ratio below 1
means B is faster.  Because both trees share one process and alternate
at item granularity, host speed swings hit both alike, so the spread of
an A/A run (a tree against itself) is much smaller than that of
separate ``run.py`` processes.  Use it to attribute a change to its
parts; a performance claim still comes from ``benchmarks/e2e``.

Every item's report digest must be the same in both trees: the command
exits 1 if any differs.  ``shard-4node`` works, but its P=2 partitions
run in worker processes that this timing covers only through the
coordinator's waits.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from types import ModuleType
from typing import Dict, Iterator, List, Optional

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("jobs-dag", "serve-ladder", "chaos-recover", "shard-4node")


def _owned(name: str) -> bool:
    """Module names that belong to one tree."""
    return name == "repro" or name.startswith("repro.") or name == "workloads"


def _take_owned() -> Dict[str, ModuleType]:
    """Remove every tree-owned module from ``sys.modules``; return them."""
    taken = {name: mod for name, mod in sys.modules.items() if _owned(name)}
    for name in taken:
        del sys.modules[name]
    return taken


class Tree:
    """One source tree's ``repro`` package and e2e ``workloads`` module,
    held outside ``sys.modules`` while the other tree runs."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root).resolve()
        workloads_py = self.root / "benchmarks" / "e2e" / "workloads.py"
        if not (self.root / "src" / "repro").is_dir() or not workloads_py.is_file():
            raise FileNotFoundError(f"{self.root} is not a checkout of this repository")
        src = str(self.root / "src")
        sys.path.insert(0, src)
        try:
            spec = importlib.util.spec_from_file_location("workloads", workloads_py)
            module = importlib.util.module_from_spec(spec)
            # dataclasses look their module up while the class is built
            sys.modules["workloads"] = module
            spec.loader.exec_module(module)
        finally:
            sys.path.remove(src)
        self.workloads = module
        self.modules = _take_owned()

    @contextmanager
    def active(self) -> Iterator[ModuleType]:
        """This tree's modules in ``sys.modules`` for the duration; the
        ones a run imports lazily are kept with the tree afterwards."""
        sys.modules.update(self.modules)
        try:
            yield self.workloads
        finally:
            self.modules = _take_owned()

    def shutdown(self) -> None:
        """Stop the tree's persistent shard workers, if it started any."""
        backends = self.modules.get("repro.shard.backends")
        if backends is not None:
            with self.active():
                backends.shutdown_workers()


def _run(tree: Tree, item_index: int, workload: str, seed: int, warmup: bool = False):
    """Run one item under ``tree``; returns (seconds, report digest)."""
    with tree.active() as W:
        item = W.generate(workload, seed, item_index, warmup=warmup)
        start = time.perf_counter()
        text = W.canonical(item, W.execute(item))
        seconds = time.perf_counter() - start
        return seconds, W.digest(text)


def _quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def compare(a_root: Path, b_root: Path, workload: str = "jobs-dag", seed: int = 0,
            items: int = 30, rounds: int = 3) -> dict:
    """Time ``items`` items of ``workload`` under both trees, interleaved.

    Returns per-tree median item seconds, the per-item ``B / A`` ratio
    quartiles and the indices of items whose digests differ.  The
    caller's own ``repro`` modules are restored afterwards.
    """
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}")
    if items < 1 or rounds < 1:
        raise ValueError("items and rounds must be positive")
    saved = _take_owned()
    trees: List[Tree] = []
    try:
        trees = [Tree(a_root), Tree(b_root)]
        for tree in trees:
            _run(tree, 0, workload, seed, warmup=True)
        best = [[float("inf")] * items for _ in trees]
        digests: List[List[Optional[str]]] = [[None] * items for _ in trees]
        for r in range(rounds):
            for i in range(items):
                order = (0, 1) if (i + r) % 2 == 0 else (1, 0)
                for side in order:
                    seconds, digest = _run(trees[side], i, workload, seed)
                    best[side][i] = min(best[side][i], seconds)
                    digests[side][i] = digest
    finally:
        for tree in trees:
            tree.shutdown()
        _take_owned()
        sys.modules.update(saved)
    ratios = [b / a for a, b in zip(best[0], best[1])]
    return {
        "workload": workload,
        "seed": seed,
        "items": items,
        "rounds": rounds,
        "a_median_ms": statistics.median(best[0]) * 1e3,
        "b_median_ms": statistics.median(best[1]) * 1e3,
        "ratio_quartiles": _quartiles(ratios),
        "digest_mismatches": [
            i for i in range(items) if digests[0][i] != digests[1][i]
        ],
    }


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("a", type=Path, help="root of the A (baseline) tree")
    p.add_argument("b", type=Path, help="root of the B (changed) tree")
    p.add_argument("--workload", default="jobs-dag", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--items", type=int, default=30, help="first N timed items")
    p.add_argument("--rounds", type=int, default=3, help="runs per item and tree")
    args = p.parse_args(argv)
    result = compare(args.a, args.b, args.workload, args.seed, args.items, args.rounds)
    q1, median, q3 = result["ratio_quartiles"]
    print(f"{args.workload}, seed {args.seed}, {args.items} items x {args.rounds} rounds")
    print(f"  A median item  {result['a_median_ms']:9.3f} ms  ({args.a})")
    print(f"  B median item  {result['b_median_ms']:9.3f} ms  ({args.b})")
    print(f"  B/A per item   median {median:.4f}  quartiles {q1:.4f} .. {q3:.4f}")
    bad = result["digest_mismatches"]
    if bad:
        print(f"  report digests differ on items {bad}")
        return 1
    print("  report digests identical on every item")
    return 0


if __name__ == "__main__":
    sys.exit(main())
