"""Which callbacks a workload's kernel events run, counted per callback.

Usage (from the repository root)::

    python tools/event_mix.py                              # jobs-dag, first 10 items
    python tools/event_mix.py --workload serve-ladder --items 20 --seed 3
    python tools/event_mix.py --top 5                      # only the 5 largest rows

Generates the first N timed items of an end-to-end workload with
``benchmarks/e2e/workloads.py`` (``generate`` and ``execute``, the same
inputs ``benchmarks/e2e/run.py`` times; nothing there is changed) and
runs them with every simulator they build carrying a counting kernel
hook.  Every fired event is grouped by its callback's qualified name.  A
``Process._resume`` is also named by the innermost generator the
process is suspended in -- ``Process._resume [PriorityResource.use]``
is a resource-hold wake-up, ``Process._resume [WorkerScheduler.run]`` a
scheduler taking its next task -- so a perf change can cite the event
traffic it targets.  ``shard-4node`` is counted at P=1 only: each P=2
item reruns the previous or next item's input, and of its partitions
only partition 0 runs in this process (partition 1's events would not
be seen), so the P=2 items among the first N are skipped.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from collections import Counter
from pathlib import Path
from typing import Any, List, Optional, Tuple
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.sim import Simulator  # noqa: E402


def load_workloads() -> Any:
    """``benchmarks/e2e/workloads.py``, imported from its path."""
    spec = importlib.util.spec_from_file_location(
        "e2e_workloads", ROOT / "benchmarks" / "e2e" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _innermost(gen: Any) -> str:
    """The qualified name of the generator ``gen`` is suspended in,
    following ``yield from`` down to the innermost one."""
    while getattr(gen.gi_yieldfrom, "gi_code", None) is not None:
        gen = gen.gi_yieldfrom
    code = gen.gi_code
    return getattr(code, "co_qualname", code.co_name)


def callback_name(callback: Any) -> str:
    """A fired callback's row name."""
    name = getattr(callback, "__qualname__", repr(callback))
    if name == "Process._resume":
        name += f" [{_innermost(callback.__self__.gen)}]"
    return name


class _Count:
    """A kernel hook that counts fired events by :func:`callback_name`."""

    def __init__(self, counts: Counter) -> None:
        self.counts = counts

    def sim_event_fired(self, time: float, callback: Any) -> None:
        self.counts[callback_name(callback)] += 1

    def process_spawned(self, process: Any) -> None:
        pass


def event_mix(workload: str, seed: int, items: int) -> Tuple[Counter, int]:
    """Fired events per callback over the first ``items`` timed items of
    ``workload`` under ``seed`` (P=1 items only), and how many
    simulators fired them."""
    counts: Counter = Counter()
    sims: List[Simulator] = []

    class Counted(Simulator):
        def __init__(self) -> None:
            super().__init__()
            self.telemetry = _Count(counts)
            sims.append(self)

    workloads = load_workloads()
    with mock.patch("repro.sim.Simulator", Counted):
        for index in range(items):
            item = workloads.generate(workload, seed, index)
            if item.partitions == 1:  # a P=2 item reruns a P=1 input
                workloads.execute(item)
    fired = sum(sim.events_processed for sim in sims)
    if fired != sum(counts.values()):
        raise RuntimeError("a run replaced the counting hook; its events are missing")
    return counts, len(sims)


def render(counts: Counter, header: str, top: Optional[int] = None) -> str:
    total = sum(counts.values())
    lines = [header, f"{'events':>10}  {'share':>6}  callback"]
    for name, n in counts.most_common(top):
        lines.append(f"{n:>10,}  {n / total:>6.1%}  {name}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="jobs-dag",
                   choices=("jobs-dag", "serve-ladder", "chaos-recover", "shard-4node"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--items", type=int, default=10, help="first N timed items")
    p.add_argument("--top", type=int, default=None, help="print only the N largest rows")
    args = p.parse_args(argv)
    counts, sims = event_mix(args.workload, args.seed, args.items)
    header = (
        f"{args.workload}, seed {args.seed}, items 0-{args.items - 1}: "
        f"{sum(counts.values()):,} events on {sims} simulators"
    )
    print(render(counts, header, args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
