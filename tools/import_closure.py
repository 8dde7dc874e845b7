"""Which ``repro`` modules a workload loads, and which of them it enters.

Usage (from the repository root)::

    python tools/import_closure.py                          # jobs-dag, first 6 items
    python tools/import_closure.py --workload serve-ladder --items 20 --seed 3

Imports ``benchmarks/e2e/workloads.py`` unchanged, as a benchmark worker
does, and runs the first N items of a workload (``generate`` and
``execute``; nothing there is changed) under a ``sys.setprofile`` call
hook.  It then prints every loaded ``repro`` module with its source
lines, and the loaded modules that no call entered during the items: a
module there costs start-up time (its import, and its compilation when
no bytecode is cached) and gives the run nothing.

A call counts by the file of the code it runs.  Module bodies, class
bodies and calls made while importing the workload module do not
count, and neither does code the hook cannot see: a module used only
through its constants, or only through the ``__init__`` and ``__eq__``
a dataclass generates (compiled from a string, not from the module's
file), shows as not entered.  Work done in other processes (the
``process`` shard backend's workers) is not seen either.
"""

from __future__ import annotations

import argparse
import importlib.util
import inspect
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


def load_workloads() -> Any:
    """``benchmarks/e2e/workloads.py``, imported from its path."""
    spec = importlib.util.spec_from_file_location(
        "e2e_workloads", ROOT / "benchmarks" / "e2e" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _source_lines(path: str) -> int:
    with open(path, encoding="utf-8") as f:
        return sum(1 for _ in f)


def import_closure(
    workload: str, seed: int, items: int
) -> Tuple[Dict[str, int], Set[str]]:
    """``(loaded, entered)`` after the first ``items`` items of
    ``workload`` under ``seed``: every loaded ``repro`` module with its
    source lines, and the names of those a call entered."""
    workloads = load_workloads()
    files: Set[str] = set()

    def hook(frame: Any, event: str, arg: Any) -> None:
        if event == "call" and frame.f_code.co_flags & inspect.CO_NEWLOCALS:
            files.add(frame.f_code.co_filename)

    sys.setprofile(hook)
    try:
        for index in range(items):
            workloads.execute(workloads.generate(workload, seed, index))
    finally:
        sys.setprofile(None)
    loaded: Dict[str, int] = {}
    entered: Set[str] = set()
    for name, module in list(sys.modules.items()):
        path = getattr(module, "__file__", None)
        if name.partition(".")[0] != "repro" or path is None:
            continue
        loaded[name] = _source_lines(path)
        if path in files:
            entered.add(name)
    return loaded, entered


def render(loaded: Dict[str, int], entered: Set[str], header: str) -> str:
    idle = sorted(name for name in loaded if name not in entered)
    lines = [
        f"{header}: {len(loaded)} repro modules loaded "
        f"({sum(loaded.values()):,} source lines)",
        f"{'lines':>7}  module",
    ]
    lines += [f"{loaded[name]:>7,}  {name}" for name in sorted(loaded)]
    lines += [
        "",
        f"not entered by any call: {len(idle)} modules "
        f"({sum(loaded[name] for name in idle):,} source lines)",
    ]
    lines += [f"{loaded[name]:>7,}  {name}" for name in idle]
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="jobs-dag",
                   choices=("jobs-dag", "serve-ladder", "chaos-recover", "shard-4node"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--items", type=int, default=6, help="first N timed items")
    args = p.parse_args(argv)
    loaded, entered = import_closure(args.workload, args.seed, args.items)
    header = f"{args.workload}, seed {args.seed}, items 0-{args.items - 1}"
    print(render(loaded, entered, header))
    return 0


if __name__ == "__main__":
    sys.exit(main())
