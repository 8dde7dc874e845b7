"""Template-based partition bring-up.

Building a sharded machine means building many *identical* Compute
Nodes.  Everything that is a pure function of the node parameters --
the fabric tile grid and its prefix sums, the frozen region budget, the
NUMA hop-distance matrix -- is computed once
per distinct shape and shared across clones as immutable state.  Routes
need no template: ``build_tree`` indexes every node network, so each
pair resolves by an LCA walk.  Mutable simulation objects (Workers,
caches, links, queues) are always built fresh per node, so behaviour is
bit-identical to an untemplated build; the legacy monolithic
constructors never use templates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.compute_node import ComputeNode, ComputeNodeParams


@dataclass
class NodeTemplate:
    """Shared immutable bring-up structures for one node shape."""

    params: ComputeNodeParams
    grid: object = None                 # fabric.floorplan.TileGrid
    budget: Optional[list] = None       # frozen Placement list
    numa_distances: Optional[Dict[tuple, int]] = None

    @classmethod
    def for_params(cls, params: ComputeNodeParams) -> "NodeTemplate":
        """Derive a template by building one throwaway reference node."""
        from repro.sim import Simulator

        scratch = Simulator()
        node = ComputeNode(scratch, params, node_id=0)
        w0 = node.workers[0]
        return cls(
            params=params,
            grid=w0.floorplanner.grid,
            budget=list(w0.floorplanner.budget_regions(params.worker.fabric_regions)),
            numa_distances=node.numa.distance_table(),
        )


class TemplateCache:
    """Per-bring-up cache of :class:`NodeTemplate` by node parameters."""

    def __init__(self) -> None:
        self._by_params: Dict[ComputeNodeParams, NodeTemplate] = {}

    def get(self, params: ComputeNodeParams) -> NodeTemplate:
        tpl = self._by_params.get(params)
        if tpl is None:
            tpl = NodeTemplate.for_params(params)
            self._by_params[params] = tpl
        return tpl


#: process-wide template cache: templates are pure functions of the node
#: parameters, so one per distinct shape per process is always correct.
#: Forked partition workers inherit whatever the coordinator warmed.
_SHARED_CACHE = TemplateCache()


def shared_template_cache() -> TemplateCache:
    return _SHARED_CACHE


def build_node(
    sim,
    params: ComputeNodeParams,
    node_id: int,
    cache: Optional[TemplateCache] = None,
) -> ComputeNode:
    """One Compute Node on its own simulator, via the template cache."""
    template = cache.get(params) if cache is not None else None
    return ComputeNode(sim, params, node_id=node_id, template=template)
