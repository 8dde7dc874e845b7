"""Which ``src/repro`` functions run on a product path, and which only under tier-1.

Usage (from the repository root)::

    python tools/reach.py                   # run both suites, print the table
    python tools/reach.py --modules         # plus one row per module
    python tools/reach.py --find _retrain   # plus the reach of matching functions
    python tools/reach.py --dumps DIR       # keep the raw dumps in DIR

The product paths are the paper's claim checks (``pytest benchmarks
--ignore=benchmarks/e2e --benchmark-disable``) plus the end-to-end
benchmark's ``benchmarks/e2e/run.py --smoke``; tier-1 is ``pytest
tests``.  Each suite runs with a generated ``sitecustomize.py`` first on
``PYTHONPATH``.  It installs ``sys.setprofile`` and
``threading.setprofile`` hooks that record every code object entered,
and dumps ``(co_filename, co_firstlineno, co_name)`` per process at
exit -- including forked shard partitions, which leave through
``os._exit``.  The dumps are matched against the ``ast`` function
definitions under ``src/repro``.  Every function lands in one class:

- ``product``: entered under the claim checks or the e2e smoke run,
- ``tier-1 only``: entered only under ``pytest tests``,
- ``never``: entered by neither (a subprocess started with an
  environment that drops ``PYTHONPATH`` is not seen).

A function's lines are its span (decorators included) minus the spans
of the functions nested in it, so the line columns add up.  Both
suites under the hooks take a few minutes.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: the suites: name -> command run from the repository root
SUITES = {
    "product": [
        [sys.executable, "-m", "pytest", "benchmarks", "--ignore=benchmarks/e2e",
         "--benchmark-disable", "-q", "-p", "no:cacheprovider"],
        [sys.executable, "benchmarks/e2e/run.py", "--smoke"],
    ],
    "tier1": [
        [sys.executable, "-m", "pytest", "tests", "-q", "-p", "no:cacheprovider"],
    ],
}

SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_DIR = os.environ.get("REACH_DUMP_DIR")
if _DIR:
    _seen = set()
    _add = _seen.add

    def _profile(frame, event, arg):
        if event == "call":
            _add(frame.f_code)

    def _dump():
        path = os.path.join(_DIR, "reach-%d-%d.txt" % (os.getpid(), id(_seen)))
        with open(path, "w") as f:
            for code in _seen:
                if code.co_filename.startswith(__REPRO_PACKAGE__):
                    f.write("%s\\t%d\\t%s\\n" % (
                        code.co_filename, code.co_firstlineno, code.co_name))

    _real_exit = os._exit

    def _exit(status):
        _dump()
        _real_exit(status)

    os._exit = _exit
    atexit.register(_dump)
    sys.setprofile(_profile)
    threading.setprofile(_profile)
'''


class Function(NamedTuple):
    path: str  # absolute source path, as in ``co_filename``
    first_line: int  # ``co_firstlineno``: the first decorator, else ``def``
    name: str  # ``co_name``
    qualname: str
    lines: int


def definitions(package: Path = PACKAGE) -> List[Function]:
    """Every function and method defined under ``package``."""
    out: List[Function] = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        _walk(tree, str(path), "", out)
    return out


def _span(node: ast.AST) -> Tuple[int, int]:
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return first, node.end_lineno


_FUNCTION_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _walk(node: ast.AST, path: str, prefix: str, out: List[Function]) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _FUNCTION_TYPES):
            qualname = f"{prefix}{child.name}"
            first, last = _span(child)
            nested = sum(b - a + 1 for a, b in map(_span, _nested(child)))
            out.append(Function(path, first, child.name, qualname,
                                last - first + 1 - nested))
            _walk(child, path, f"{qualname}.<locals>.", out)
        elif isinstance(child, ast.ClassDef):
            _walk(child, path, f"{prefix}{child.name}.", out)
        else:
            _walk(child, path, prefix, out)


def _nested(node: ast.AST) -> Iterable[ast.AST]:
    """The functions defined in ``node`` with no function between."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _FUNCTION_TYPES):
            yield child
        else:
            yield from _nested(child)


def run_suite(name: str, dump_dir: Path) -> None:
    """Run one suite's commands under the profile hooks."""
    hooks = dump_dir / "hooks"
    hooks.mkdir(parents=True, exist_ok=True)
    (hooks / "sitecustomize.py").write_text(
        SITECUSTOMIZE.replace("__REPRO_PACKAGE__", repr(str(PACKAGE) + os.sep))
    )
    out = dump_dir / name
    out.mkdir(parents=True, exist_ok=True)
    for stale in out.glob("reach-*.txt"):
        stale.unlink()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(hooks), str(SRC)])
    env["REACH_DUMP_DIR"] = str(out)
    for cmd in SUITES[name]:
        print(f"[reach] {name}: {' '.join(cmd[1:])}", file=sys.stderr, flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            print(f"[reach] {name}: exit status {proc.returncode}", file=sys.stderr)


def entered(dump_dir: Path) -> Set[Tuple[str, int, str]]:
    """The union of every dump file in ``dump_dir``."""
    seen: Set[Tuple[str, int, str]] = set()
    for path in dump_dir.glob("reach-*.txt"):
        for line in path.read_text().splitlines():
            filename, first_line, name = line.split("\t")
            seen.add((filename, int(first_line), name))
    return seen


def classify(
    functions: Iterable[Function],
    product: Set[Tuple[str, int, str]],
    tier1: Set[Tuple[str, int, str]],
) -> Dict[Function, str]:
    out = {}
    for fn in functions:
        key = (fn.path, fn.first_line, fn.name)
        if key in product:
            out[fn] = "product"
        elif key in tier1:
            out[fn] = "tier-1 only"
        else:
            out[fn] = "never"
    return out


CLASSES = ("product", "tier-1 only", "never")


def _module(fn: Function) -> str:
    return str(Path(fn.path).relative_to(SRC))


def render(reach: Dict[Function, str], modules: bool, find: List[str]) -> str:
    rows = []
    totals = {c: [0, 0] for c in CLASSES}
    per_module: Dict[str, Dict[str, List[int]]] = defaultdict(
        lambda: {c: [0, 0] for c in CLASSES}
    )
    for fn, cls in reach.items():
        for table in (totals, per_module[_module(fn)]):
            table[cls][0] += 1
            table[cls][1] += fn.lines
    n = sum(v[0] for v in totals.values())
    lines = sum(v[1] for v in totals.values())
    rows.append(f"{n} functions ({lines} lines) under src/repro")
    rows.append(f"{'reach':<12} {'functions':>9} {'lines':>7}")
    for cls in CLASSES:
        rows.append(f"{cls:<12} {totals[cls][0]:>9} {totals[cls][1]:>7}")
    dark = sorted(m for m, t in per_module.items() if t["product"][0] == 0)
    rows.append("")
    rows.append(f"{len(dark)} modules with no product reach:")
    rows.extend(f"  {m}" for m in dark)
    if modules:
        rows.append("")
        rows.append(f"{'module':<44} " + " ".join(f"{c:>12}" for c in CLASSES))
        for m in sorted(per_module):
            t = per_module[m]
            rows.append(f"{m:<44} " + " ".join(
                f"{t[c][0]:>5} {t[c][1]:>6}" for c in CLASSES))
    for pattern in find:
        rows.append("")
        rows.append(f"functions matching {pattern!r}:")
        for fn in sorted(reach, key=lambda f: (f.path, f.first_line)):
            if pattern in fn.qualname:
                rows.append(f"  {reach[fn]:<12} {_module(fn)}:{fn.first_line} "
                            f"{fn.qualname}")
    return "\n".join(rows)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--dumps", type=Path, default=None,
                   help="directory for the raw dumps (default: a temporary one)")
    p.add_argument("--modules", action="store_true",
                   help="print one row per module (count and lines per class)")
    p.add_argument("--find", action="append", default=[],
                   help="list the reach of functions whose qualname contains this")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        dump_dir = args.dumps if args.dumps is not None else Path(tmp)
        for suite in SUITES:
            run_suite(suite, dump_dir)
        reach = classify(
            definitions(), entered(dump_dir / "product"), entered(dump_dir / "tier1")
        )
    print(render(reach, args.modules, args.find))
    return 0


if __name__ == "__main__":
    sys.exit(main())
