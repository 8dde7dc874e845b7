"""Fold a cProfile into per-layer host time, using caller edges.

The layers are the ``repro`` packages.  A function defined in ``repro``
belongs to its package's layer.  A function defined anywhere else
(stdlib, networkx, numpy, builtins) is *charged to the repro layers that
called it*: its self time is split across its callers in proportion to
the self time each caller edge recorded, and a caller that is itself
outside ``repro`` passes its share on to its own callers in proportion
to their cumulative time.  So networkx's route search shows up as
``interconnect`` time, and ``json.dumps`` inside a report as the layer
that serialised the report.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Tuple

LAYERS = (
    "sim", "core.runtime", "core", "interconnect", "fabric", "memory",
    "hls", "opencl", "serving", "chaos", "shard", "telemetry", "energy",
    "pgas", "mpi", "apps", "service", "harness", "other",
)

#: top-level repro modules that make up the harness layer
HARNESS = {"experiments", "presets", "cli", "perf", "__init__", "__main__"}

Func = Tuple[str, int, str]   # pstats key: (filename, line, function name)


def layer_resolver(package_dir: str, bench_dir: str) -> Callable[[str], Optional[str]]:
    """Map a profiled filename to its layer, or ``None`` when it lies
    outside ``repro`` and must be charged to its callers.  The
    benchmark's own files are ``other``."""
    package = os.path.realpath(package_dir) + os.sep
    bench = os.path.realpath(bench_dir) + os.sep

    def resolve(filename: str) -> Optional[str]:
        path = os.path.realpath(filename) if filename.endswith(".py") else filename
        if path.startswith(bench):
            return "other"
        if not path.startswith(package):
            return None
        parts = path[len(package):-len(".py")].split(os.sep)
        if len(parts) == 1:
            return "harness" if parts[0] in HARNESS else "other"
        if parts[0] == "core":
            return "core.runtime" if parts[1] == "runtime" else "core"
        return parts[0] if parts[0] in LAYERS else "other"

    return resolve


def fold(stats: Dict[Func, tuple], resolve: Callable[[str], Optional[str]]) -> Dict[str, Dict[str, float]]:
    """Per-layer ``self_s`` and ``calls_in`` from ``pstats.Stats.stats``.

    ``stats`` maps each function to ``(cc, nc, tt, ct, callers)`` where
    ``callers`` maps a calling function to that edge's
    ``(nc, cc, tt, ct)`` (note the swapped call counts: that is how
    cProfile stores edges).  Returns ``{layer: {"self_s", "calls_in"}}``
    for every layer; the ``self_s`` values sum to the profile's total.
    """
    own = {f: resolve(f[0]) for f in stats}
    owner = _owners(stats, own)

    def source(func: Func) -> Dict[str, float]:
        if func not in stats:
            return {"other": 1.0}
        return owner[func] if own[func] is None else {own[func]: 1.0}

    layers = {name: {"self_s": 0.0, "calls_in": 0.0} for name in LAYERS}
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = own[func]
        if layer is not None:
            layers[layer]["self_s"] += tt
            for caller, edge in callers.items():
                layers[layer]["calls_in"] += edge[0] * (1.0 - source(caller).get(layer, 0.0))
            continue
        for caller, edge in callers.items():
            for name, share in source(caller).items():
                layers[name]["self_s"] += share * edge[2]
        # self time no recorded caller edge accounts for
        layers["other"]["self_s"] += max(0.0, tt - sum(edge[2] for edge in callers.values()))
    return layers


def _owners(stats: Dict[Func, tuple], own: Dict[Func, Optional[str]]) -> Dict[Func, Dict[str, float]]:
    """How each non-repro function's cumulative time divides among layers.

    Walking from a function to one of its callers with probability
    proportional to that edge's cumulative time, the answer is where the
    walk first reaches a function that has a layer.  Solved by value
    iteration, so recursion among non-repro functions (``deepcopy``,
    graph searches) is handled; mass a walk never settles is ``other``.
    """
    external = [f for f in stats if own[f] is None]
    steps = {}
    for f in external:
        weights = {c: e[3] or e[0] for c, e in stats[f][4].items() if c in stats}
        total = sum(weights.values())
        steps[f] = [(c, w / total) for c, w in weights.items()] if total > 0 else []
    dist: Dict[Func, Dict[str, float]] = {f: {} for f in external}
    for _ in range(1000):
        change = 0.0
        for f in external:
            new: Dict[str, float] = {}
            for caller, p in steps[f]:
                layer = own[caller]
                for name, share in ({layer: 1.0} if layer else dist[caller]).items():
                    new[name] = new.get(name, 0.0) + p * share
            change = max(change, sum(new.values()) - sum(dist[f].values()))
            dist[f] = new
        if change < 1e-12:
            break
    for d in dist.values():
        d["other"] = d.get("other", 0.0) + max(0.0, 1.0 - sum(d.values()))
    return dist


def cumulative(stats: Dict[Func, tuple], filename_suffix: str, name: str) -> float:
    """Total cumulative seconds under every function ``name`` defined in
    a file ending with ``filename_suffix``."""
    return sum(
        entry[3]
        for (filename, _line, func), entry in stats.items()
        if func == name and filename.replace(os.sep, "/").endswith(filename_suffix)
    )


def top_functions(stats: Dict[Func, tuple], resolve, per_layer: int = 5) -> Dict[str, list]:
    """The largest self-time functions defined in each layer."""
    rows: Dict[str, list] = {}
    for (filename, line, func), entry in stats.items():
        layer = resolve(filename)
        if layer is not None:
            rows.setdefault(layer, []).append(
                (entry[2], f"{os.path.basename(filename)}:{line}:{func}")
            )
    return {
        layer: [{"fn": fn, "self_s": tt} for tt, fn in sorted(found, reverse=True)[:per_layer]]
        for layer, found in sorted(rows.items())
    }
