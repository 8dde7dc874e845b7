"""Topology builders.

Two families are provided:

1. The **ECOSCALE machine hierarchy** (Fig. 3): balanced trees whose
   levels model board / chassis / cabinet interconnect layers, each level
   up being slower and costlier per byte -- "starting from the leaves,
   each level up the tree would add one hop in the maximum communication
   distance" (Section 2).

2. **Application/system topologies** cited by the paper for hierarchical
   partitioning studies: flat crossbars (the baseline that does not
   scale), 2-D meshes, fat trees, dragonfly and slimfly-like high-radix
   graphs [Prisacari et al.].

Every builder returns ``(network, workers)`` where ``workers`` is the
ordered list of leaf endpoint ids.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence, Tuple

from repro.interconnect.link import LinkParams
from repro.interconnect.network import Network
from repro.sim import Simulator


def level_params(level: int) -> LinkParams:
    """Default per-level link parameters for hierarchy level ``level``.

    Level 0 is the fastest (on-chip / intra-board); each level up loses
    half the bandwidth and pays ~4x latency and ~3x energy per byte,
    matching the on-chip -> off-chip -> off-board -> off-chassis cost
    cliffs of real systems.
    """
    if level < 0:
        raise ValueError(f"level must be non-negative, got {level}")
    return LinkParams(
        bandwidth_gbps=16.0 / (2 ** level),
        latency_ns=10.0 * (4 ** level),
        energy_per_byte_pj=1.0 * (3 ** level),
    )


def build_tree(
    sim: Simulator,
    fanouts: Sequence[int],
    params_per_level: Optional[Sequence[LinkParams]] = None,
) -> Tuple[Network, List[Hashable]]:
    """A balanced tree: ``fanouts[0]`` children at the root, etc.

    Leaves are Workers named ``("w", i)``; internal switches are
    ``("s", depth, index)``.  The returned network is tree-indexed
    (:meth:`Network.index_tree`), so routes resolve without a graph
    search until a later ``add_link`` drops the index.  ``params_per_level[d]`` parameterizes the
    links *below* depth-``d`` switches; by default deeper (closer to the
    leaves) levels are faster, per :func:`level_params`.
    """
    if not fanouts or any(f < 1 for f in fanouts):
        raise ValueError(f"fanouts must be non-empty positive ints, got {fanouts}")
    depth = len(fanouts)
    if params_per_level is None:
        # links directly above the leaves get level 0 (fastest)
        params_per_level = [level_params(depth - 1 - d) for d in range(depth)]
    if len(params_per_level) != depth:
        raise ValueError("params_per_level must match len(fanouts)")

    net = Network(sim, name=f"tree{tuple(fanouts)}")
    workers: List[Hashable] = []
    root = ("s", 0, 0)
    net.add_node(root)

    frontier = [root]
    for d, fanout in enumerate(fanouts):
        last_level = d == depth - 1
        next_frontier = []
        for parent in frontier:
            for c in range(fanout):
                if last_level:
                    child: Hashable = ("w", len(workers))
                    net.add_node(child)
                    workers.append(child)
                else:
                    child = ("s", d + 1, len(next_frontier))
                    net.add_node(child)
                    next_frontier.append(child)
                net.add_link(parent, child, params_per_level[d])
        frontier = next_frontier
    # a tree has one simple path per pair: route by LCA walk, not search
    net.index_tree()
    return net, workers


def build_flat_crossbar(
    sim: Simulator,
    num_workers: int,
    params: LinkParams = LinkParams(),
) -> Tuple[Network, List[Hashable]]:
    """All Workers hang off one central crossbar switch.

    This is the "flat partitioning" strawman: uniform 2-hop distance, but
    every transfer crosses the single shared switch, which is what
    "simply cannot scale".
    """
    if num_workers < 1:
        raise ValueError("need at least one worker")
    net = Network(sim, name=f"flat{num_workers}")
    hub = ("s", 0, 0)
    net.add_node(hub)
    workers: List[Hashable] = []
    for i in range(num_workers):
        w = ("w", i)
        net.add_node(w)
        net.add_link(hub, w, params)
        workers.append(w)
    # a star is a tree: route by LCA walk, not search
    net.index_tree()
    return net, workers


def build_fat_tree(
    sim: Simulator,
    fanouts: Sequence[int],
    uplink_width: int = 2,
) -> Tuple[Network, List[Hashable]]:
    """A tree whose upper levels have ``uplink_width``x wider links,
    approximating fat-tree bandwidth tapering."""
    if uplink_width < 1:
        raise ValueError("uplink_width must be >= 1")
    depth = len(fanouts)
    params = []
    for d in range(depth):
        base = level_params(depth - 1 - d)
        lanes = uplink_width ** (depth - 1 - d)
        params.append(
            LinkParams(
                bandwidth_gbps=base.bandwidth_gbps,
                latency_ns=base.latency_ns,
                energy_per_byte_pj=base.energy_per_byte_pj,
                width_lanes=max(1, lanes),
            )
        )
    return build_tree(sim, fanouts, params)


def build_mesh2d(
    sim: Simulator,
    rows: int,
    cols: int,
    params: LinkParams = LinkParams(),
) -> Tuple[Network, List[Hashable]]:
    """A rows x cols 2-D mesh of Workers (each Worker also routes)."""
    if rows < 1 or cols < 1:
        raise ValueError("mesh dimensions must be positive")
    net = Network(sim, name=f"mesh{rows}x{cols}")
    workers: List[Hashable] = []
    for r in range(rows):
        for c in range(cols):
            w = ("w", r * cols + c)
            net.add_node(w)
            workers.append(w)
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                net.add_link(("w", r * cols + c), ("w", r * cols + c + 1), params)
            if r + 1 < rows:
                net.add_link(("w", r * cols + c), ("w", (r + 1) * cols + c), params)
    return net, workers


def build_dragonfly(
    sim: Simulator,
    groups: int,
    routers_per_group: int,
    workers_per_router: int,
    local_params: Optional[LinkParams] = None,
    global_params: Optional[LinkParams] = None,
) -> Tuple[Network, List[Hashable]]:
    """A canonical dragonfly: fully-connected router groups, one global
    link between every pair of groups (assigned round-robin to routers)."""
    if groups < 1 or routers_per_group < 1 or workers_per_router < 1:
        raise ValueError("dragonfly dimensions must be positive")
    local = local_params or level_params(0)
    glob = global_params or level_params(2)
    net = Network(sim, name=f"dragonfly{groups}x{routers_per_group}")
    workers: List[Hashable] = []

    for g in range(groups):
        for r in range(routers_per_group):
            router = ("r", g, r)
            net.add_node(router)
            for w in range(workers_per_router):
                worker = ("w", len(workers))
                net.add_node(worker)
                net.add_link(router, worker, local)
                workers.append(worker)
        # intra-group all-to-all
        for a in range(routers_per_group):
            for b in range(a + 1, routers_per_group):
                net.add_link(("r", g, a), ("r", g, b), local)
    # one global link per group pair
    pair_idx = 0
    for g1 in range(groups):
        for g2 in range(g1 + 1, groups):
            r1 = pair_idx % routers_per_group
            r2 = (pair_idx + 1) % routers_per_group
            net.add_link(("r", g1, r1), ("r", g2, r2), glob)
            pair_idx += 1
    return net, workers


def _paley_edges(q: int) -> List[Tuple[int, int]]:
    """Edges of the Paley graph on GF(q); requires q prime, q % 4 == 1."""
    residues = {(x * x) % q for x in range(1, q)}
    edges = []
    for a in range(q):
        for b in range(a + 1, q):
            if (b - a) % q in residues:
                edges.append((a, b))
    return edges


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def build_slimfly_like(
    sim: Simulator,
    q: int,
    workers_per_router: int = 1,
    local_params: Optional[LinkParams] = None,
    global_params: Optional[LinkParams] = None,
) -> Tuple[Network, List[Hashable]]:
    """A diameter-2, low-hop high-radix graph standing in for SlimFly.

    We use the Paley graph on GF(q) (q prime, q = 1 mod 4) for the router
    fabric; like the McKay-Miller-Siran graphs used by SlimFly it is a
    vertex-transitive diameter-2 graph near the Moore bound, which is the
    property the paper's Section 2 cares about (minimum hop count).
    """
    if not _is_prime(q) or q % 4 != 1:
        raise ValueError(f"q must be a prime with q % 4 == 1, got {q}")
    local = local_params or level_params(0)
    glob = global_params or level_params(1)
    net = Network(sim, name=f"slimfly{q}")
    workers: List[Hashable] = []
    for v in range(q):
        router = ("r", v)
        net.add_node(router)
        for w in range(workers_per_router):
            worker = ("w", len(workers))
            net.add_node(worker)
            net.add_link(router, worker, local)
            workers.append(worker)
    for a, b in _paley_edges(q):
        net.add_link(("r", a), ("r", b), glob)
    return net, workers
