"""A network of nodes and links with routing, costing and simulation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.interconnect.link import EnergyTally, Link, LinkParams
from repro.interconnect.message import Message, TransactionType
from repro.sim import Simulator
from repro.telemetry.quantiles import fold_sum


@dataclass
class Route:
    """A resolved path: the node sequence and the links traversed."""

    nodes: List[Hashable]
    links: List[Link]

    @property
    def hops(self) -> int:
        return len(self.links)

    def latency(self, size_bytes: int) -> float:
        """Uncontended end-to-end latency, store-and-forward per hop."""
        return fold_sum(link.cost(size_bytes) for link in self.links)

    def energy(self, size_bytes: int) -> float:
        return fold_sum(
            size_bytes * link.params.energy_per_byte_pj for link in self.links
        )


class Network:
    """Nodes joined by :class:`Link` objects, routed by weighted shortest path.

    Endpoints (Workers, Compute-Node routers, chassis switches) are
    arbitrary hashable ids.  Link weights for routing are the uncontended
    per-hop latencies, so routes naturally prefer faster layers.

    The topology is an insertion-ordered adjacency ``{node: {neighbour:
    link}}`` laid out exactly as networkx lays out a ``Graph`` built by
    the same calls.  Tree-indexed networks route by LCA walks over it;
    only a search on a network without a tree index (mesh, dragonfly,
    slim fly) imports networkx, on a ``Graph`` replayed from the node
    order and the link log so its neighbour order, and hence its
    Dijkstra tie-breaks, are the same.
    """

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._adj: Dict[Hashable, Dict[Hashable, Link]] = {}
        # add_link calls in order, replayed by _nx_graph()
        self._edges: List[Tuple[Hashable, Hashable, Link]] = []
        self._graph = None
        self._route_cache: Dict[Tuple[Hashable, Hashable], Route] = {}
        # (parent, depth) maps from index_tree(); lets route() build any
        # pair's unique path by an LCA walk instead of a graph search
        self._tree_index: Optional[Tuple[Dict, Dict]] = None
        # links in graph edge order, derived once per topology; the
        # reporting sums below fold over it in that same order
        self._links: Optional[List[Link]] = None
        self.messages_sent = 0
        self.bytes_sent = 0
        #: running sum of every link's energy (see :class:`EnergyTally`)
        self.energy_tally = EnergyTally()
        # armed by repro.telemetry.wiring.attach_network
        self.telemetry = None
        self.tel_msg_latency = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Hashable) -> None:
        self._adj.setdefault(node, {})
        self._graph = None

    def add_link(
        self,
        a: Hashable,
        b: Hashable,
        params: LinkParams = LinkParams(),
        name: str = "",
    ) -> Link:
        link = Link(self.sim, params, name or f"{a}<->{b}", self.energy_tally)
        self._adj.setdefault(a, {})[b] = link
        self._adj.setdefault(b, {})[a] = link
        self._edges.append((a, b, link))
        self._graph = None
        self._route_cache.clear()
        self._tree_index = None
        self._links = None
        return link

    @property
    def nodes(self) -> List[Hashable]:
        return list(self._adj)

    @property
    def links(self) -> List[Link]:
        return list(self._link_list())

    def _link_list(self) -> List[Link]:
        """The cached link list; callers must not mutate it."""
        if self._links is None:
            # networkx EdgeView order: each edge once, at its first end
            done = set()
            links = []
            for node, nbrs in self._adj.items():
                links.extend(link for nbr, link in nbrs.items() if nbr not in done)
                done.add(node)
            self._links = links
        return self._links

    def _nx_graph(self):
        """A networkx ``Graph`` replayed from the construction calls."""
        if self._graph is None:
            import networkx as nx

            graph = nx.Graph()
            # nodes first, in first-appearance order as networkx keeps
            # them; links in call order fix each node's neighbour order
            graph.add_nodes_from(self._adj)
            for a, b, link in self._edges:
                graph.add_edge(a, b, weight=link.params.latency_ns)
            self._graph = graph
        return self._graph

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route(self, src: Hashable, dst: Hashable) -> Route:
        """Weighted shortest path; cached until the topology changes."""
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        path = self._tree_path(src, dst)
        if path is None:
            if src == dst:
                path = [src]
            else:
                import networkx as nx

                try:
                    path = nx.shortest_path(self._nx_graph(), src, dst, weight="weight")
                except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
                    raise ValueError(f"no route from {src!r} to {dst!r}") from exc
        adj = self._adj
        route = Route(
            list(path), [adj[path[i]][path[i + 1]] for i in range(len(path) - 1)]
        )
        self._route_cache[key] = route
        return route

    def hop_distance(self, src: Hashable, dst: Hashable) -> int:
        return self.route(src, dst).hops

    def index_tree(self) -> None:
        """Index a tree topology for O(depth) route materialization.

        One BFS builds a parent/depth map; :meth:`route` then resolves
        any pair by walking both ends up to their lowest common
        ancestor.  Only valid on connected trees -- there each pair has
        a *unique* simple path, so the LCA walk reproduces exactly the
        path a graph search would find and indexing cannot change which
        links carry traffic.  Raises otherwise; any topology change
        drops the index.
        """
        nodes = list(self._adj)
        if not nodes:
            raise ValueError("cannot index an empty network")
        root = nodes[0]
        parent: Dict[Hashable, Optional[Hashable]] = {root: None}
        depth: Dict[Hashable, int] = {root: 0}
        order = [root]
        for node in order:
            for nbr in self._adj[node]:
                if nbr not in parent:
                    parent[nbr] = node
                    depth[nbr] = depth[node] + 1
                    order.append(nbr)
        if len(parent) != len(nodes) or len(self._link_list()) != len(nodes) - 1:
            raise ValueError("index_tree needs a connected tree")
        self._tree_index = (parent, depth)

    def _tree_path(
        self, src: Hashable, dst: Hashable
    ) -> Optional[Tuple[Hashable, ...]]:
        """The unique src->dst label path via the tree index, else None."""
        if self._tree_index is None:
            return None
        parent, depth = self._tree_index
        if src not in depth or dst not in depth:
            return None
        a, b = src, dst
        up_a, up_b = [a], [b]
        while a != b:
            if depth[a] >= depth[b]:
                a = parent[a]
                up_a.append(a)
            else:
                b = parent[b]
                up_b.append(b)
        return tuple(up_a + up_b[-2::-1])

    def hop_distances_from(
        self, src: Hashable, dsts: Optional[Iterable[Hashable]] = None
    ) -> Dict[Hashable, int]:
        """Hop counts from ``src`` to each destination in one sweep.

        On a tree-indexed network each count is an LCA walk.  Otherwise
        one single-source Dijkstra replaces a per-pair search, which is
        what makes all-pairs consumers (NUMA distance matrices) linear in
        sources instead of quadratic.  Deliberately does *not* populate
        the route cache: on graphs with equal-cost paths a batched sweep
        may pick a different representative path than :meth:`route`, and
        traffic must keep flowing over exactly the cached routes.  That
        caveat cannot arise on a tree, where every pair has one path.
        """
        if src not in self._adj:
            raise ValueError(f"unknown node {src!r}")
        targets = list(dsts) if dsts is not None else self.nodes
        if self._tree_index is not None:
            paths = {dst: self._tree_path(src, dst) for dst in targets}
        else:
            import networkx as nx

            _, paths = nx.single_source_dijkstra(self._nx_graph(), src, weight="weight")
        out: Dict[Hashable, int] = {}
        for dst in targets:
            if dst == src:
                out[dst] = 0
                continue
            path = paths.get(dst)
            if path is None:
                raise ValueError(f"no route from {src!r} to {dst!r}")
            out[dst] = len(path) - 1
        return out

    def diameter_hops(self, endpoints: Optional[Iterable[Hashable]] = None) -> int:
        """Maximum hop distance between any two endpoints.

        ``endpoints`` restricts the measurement to leaf nodes (Workers) --
        the paper's "maximum communication distance between any two
        processing units".
        """
        nodes = list(endpoints) if endpoints is not None else self.nodes
        if self._tree_index is not None and nodes:
            # two farthest-point sweeps: on a tree, the farthest member
            # of a set from ANY start is one end of a longest in-set
            # path, so two O(n * depth) sweeps replace n BFS passes
            def dist(a: Hashable, b: Hashable) -> int:
                path = self._tree_path(a, b)
                if path is None:
                    raise ValueError(f"{b!r} unreachable from {a!r}")
                return len(path) - 1

            u = max(nodes, key=lambda n: dist(nodes[0], n))
            return max(dist(u, n) for n in nodes)
        import networkx as nx

        graph = self._nx_graph()
        best = 0
        for i, a in enumerate(nodes):
            lengths = nx.single_source_shortest_path_length(graph, a)
            for b in nodes[i + 1:]:
                if b not in lengths:
                    raise ValueError(f"{b!r} unreachable from {a!r}")
                if lengths[b] > best:
                    best = lengths[b]
        return best

    # ------------------------------------------------------------------
    # transfers
    # ------------------------------------------------------------------
    def send_cost(self, msg: Message) -> Tuple[float, float]:
        """Analytic (latency_ns, energy_pj) for ``msg``; accounts traffic."""
        route = self.route(msg.src, msg.dst)
        wire = msg.wire_bytes
        for link in route.links:
            link.account(wire)
        self.messages_sent += 1
        self.bytes_sent += wire * max(1, route.hops)
        return route.latency(wire), route.energy(wire)

    def send(self, msg: Message):
        """Simulation process: store-and-forward over every hop with
        contention.  ``yield from network.send(msg)``; returns the message
        with timestamps filled in."""
        msg.issued_at = self.sim.now
        route = self.route(msg.src, msg.dst)
        wire = msg.wire_bytes
        self.messages_sent += 1
        for link in route.links:
            yield from link.transfer(wire, priority=msg.kind.priority)
        self.bytes_sent += wire * max(1, route.hops)
        msg.delivered_at = self.sim.now
        if self.telemetry is not None:
            self.tel_msg_latency.record(msg.delivered_at - msg.issued_at)
        return msg

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def total_energy_pj(self) -> float:
        """Transport energy of every link, read from the running tally:
        O(1), and equal to the fold over the links while every increment
        is a whole number of picojoules (see :class:`EnergyTally`)."""
        return self.energy_tally.pj

    def total_link_bytes(self) -> int:
        """Sum of bytes carried per link (counts each hop separately) --
        the 'data traffic' metric of the paper's energy argument."""
        return sum(link.bytes_carried for link in self._link_list())

    def reset_traffic(self) -> None:
        for link in self._link_list():
            link.bytes_carried = 0
            link.messages_carried = 0
            link.energy_pj = 0.0
        self.energy_tally.pj = 0.0
        self.messages_sent = 0
        self.bytes_sent = 0
