"""Unit tests for Network routing, costing and simulation."""

import networkx
import pytest

from repro.interconnect import LinkParams, Message, Network, TransactionType, topology
from repro.sim import Simulator, spawn


def line_network(n=3, **kw):
    """0 - 1 - 2 - ... chain."""
    sim = Simulator()
    net = Network(sim)
    for i in range(n):
        net.add_node(i)
    for i in range(n - 1):
        net.add_link(i, i + 1, LinkParams(**kw))
    return sim, net


class TestRouting:
    def test_route_self_is_empty(self):
        _, net = line_network()
        r = net.route(1, 1)
        assert r.hops == 0
        assert r.latency(100) == 0.0

    def test_route_follows_chain(self):
        _, net = line_network(4)
        r = net.route(0, 3)
        assert r.nodes == [0, 1, 2, 3]
        assert r.hops == 3

    def test_no_route_raises(self):
        sim = Simulator()
        net = Network(sim)
        net.add_node("a")
        net.add_node("b")
        with pytest.raises(ValueError):
            net.route("a", "b")
        with pytest.raises(ValueError):
            net.route("a", "missing")

    def test_route_cache_invalidated_by_new_link(self):
        sim, net = line_network(3)
        assert net.route(0, 2).hops == 2
        net.add_link(0, 2, LinkParams())
        assert net.route(0, 2).hops == 1

    def test_weighted_routing_prefers_fast_path(self):
        sim = Simulator()
        net = Network(sim)
        for n in ("a", "b", "c"):
            net.add_node(n)
        net.add_link("a", "c", LinkParams(latency_ns=1000.0))
        net.add_link("a", "b", LinkParams(latency_ns=10.0))
        net.add_link("b", "c", LinkParams(latency_ns=10.0))
        r = net.route("a", "c")
        assert r.nodes == ["a", "b", "c"]

    def test_hop_distance_and_diameter(self):
        _, net = line_network(5)
        assert net.hop_distance(0, 4) == 4
        assert net.diameter_hops() == 4
        assert net.diameter_hops(endpoints=[1, 2, 3]) == 2


class TestCosting:
    def test_send_cost_accumulates_per_hop(self):
        _, net = line_network(3, bandwidth_gbps=1.0, latency_ns=10.0, energy_per_byte_pj=2.0)
        msg = Message(0, 2, 100, TransactionType.DMA)  # wire = 132
        lat, energy = net.send_cost(msg)
        assert lat == pytest.approx(2 * (10.0 + 132.0))
        assert energy == pytest.approx(2 * 132 * 2.0)
        assert net.total_link_bytes() == 2 * 132
        assert net.total_energy_pj() == pytest.approx(energy)

    def test_reset_traffic(self):
        _, net = line_network(3)
        net.send_cost(Message(0, 2, 100))
        net.reset_traffic()
        assert net.total_link_bytes() == 0
        assert net.total_energy_pj() == 0.0
        assert net.messages_sent == 0


class TestSimulatedSend:
    def test_send_process_timestamps(self):
        sim, net = line_network(3, bandwidth_gbps=1.0, latency_ns=0.0)
        results = []

        def proc():
            msg = Message(0, 2, 100, TransactionType.SYNC)  # wire 108
            delivered = yield from net.send(msg)
            results.append(delivered.latency)

        spawn(sim, proc())
        sim.run()
        assert results[0] == pytest.approx(2 * 108.0)

    def test_contention_on_shared_link(self):
        sim, net = line_network(2, bandwidth_gbps=1.0, latency_ns=0.0)
        done = []

        def proc():
            msg = Message(0, 1, 92, TransactionType.SYNC)  # wire 100
            yield from net.send(msg)
            done.append(sim.now)

        spawn(sim, proc())
        spawn(sim, proc())
        sim.run()
        assert sorted(done) == [100.0, 200.0]


class TestTreeIndex:
    def tree_pair(self, fanouts):
        from repro.interconnect.topology import build_tree, level_params

        depth = len(fanouts)
        params = [level_params(depth - 1 - d + 1) for d in range(depth)]
        searched, eps = build_tree(Simulator(), fanouts, params)
        searched._tree_index = None  # build_tree indexes; force graph search
        indexed, _ = build_tree(Simulator(), fanouts, params)
        return searched, indexed, eps

    @pytest.mark.parametrize("fanouts", [[4], [2, 3], [4, 4], [1, 4]])
    def test_indexed_routes_match_graph_search(self, fanouts):
        searched, indexed, eps = self.tree_pair(fanouts)
        for a in eps:
            for b in eps:
                want = searched.route(a, b)
                got = indexed.route(a, b)
                assert got.nodes == want.nodes
                assert got.latency(4096) == want.latency(4096)
        assert indexed.diameter_hops(eps) == searched.diameter_hops(eps)
        for a in eps:
            assert indexed.hop_distances_from(a) == searched.hop_distances_from(a)

    def test_index_tree_rejects_cycles(self):
        _, net = line_network(3)
        net.add_link(0, 2)
        with pytest.raises(ValueError, match="connected tree"):
            net.index_tree()

    def test_topology_change_drops_index(self):
        _, indexed, eps = self.tree_pair([4])
        indexed.add_link(eps[0], eps[1])
        assert indexed._tree_index is None
        # routing still works, now via graph search
        assert indexed.route(eps[0], eps[1]).hops == 1


class _Mirrored(Network):
    """A Network that repeats every construction call on an ``nx.Graph``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.mirror = networkx.Graph()

    def add_node(self, node):
        super().add_node(node)
        self.mirror.add_node(node)

    def add_link(self, a, b, params=LinkParams(), name=""):
        link = super().add_link(a, b, params, name)
        self.mirror.add_edge(a, b, link=link, weight=params.latency_ns)
        return link


def _scrambled_ring(sim):
    """A 6-ring whose links arrive out of node order: its equal-cost
    routes follow neighbour order, i.e. Dijkstra's tie-breaks."""
    net = _Mirrored(sim)
    for a, b in [(3, 4), (0, 5), (2, 3), (4, 5), (1, 2), (0, 1)]:
        net.add_link(a, b, LinkParams())
    return net, list(range(6))


BUILDS = {
    "scrambled_ring": _scrambled_ring,
    "tree": lambda sim: topology.build_tree(sim, [2, 3]),
    "flat_crossbar": lambda sim: topology.build_flat_crossbar(sim, 5),
    "fat_tree": lambda sim: topology.build_fat_tree(sim, [2, 2, 2]),
    "mesh2d": lambda sim: topology.build_mesh2d(sim, 3, 4),
    "dragonfly": lambda sim: topology.build_dragonfly(sim, 3, 2, 2),
    "slimfly_like": lambda sim: topology.build_slimfly_like(sim, 5),
}


class TestMatchesNetworkx:
    """Every builder's network routes as an ``nx.Graph`` of the same calls."""

    @pytest.fixture(params=sorted(BUILDS))
    def built(self, request, monkeypatch):
        monkeypatch.setattr(topology, "Network", _Mirrored)
        net, workers = BUILDS[request.param](Simulator())
        return net, workers, net.mirror

    def test_nodes_and_links_in_graph_order(self, built):
        net, _, graph = built
        assert net.nodes == list(graph.nodes)
        assert [l.name for l in net.links] == [
            data["link"].name for _, _, data in graph.edges(data=True)
        ]

    def test_routes(self, built):
        net, _, graph = built
        for a in graph.nodes:
            for b in graph.nodes:
                path = networkx.shortest_path(graph, a, b, weight="weight")
                route = net.route(a, b)
                assert route.nodes == path
                assert route.links == [
                    graph.edges[path[i], path[i + 1]]["link"] for i in range(len(path) - 1)
                ]

    def test_hop_distances_from(self, built):
        net, _, graph = built
        for src in graph.nodes:
            _, paths = networkx.single_source_dijkstra(graph, src, weight="weight")
            assert net.hop_distances_from(src) == {
                dst: len(path) - 1 for dst, path in paths.items()
            }

    def test_diameter_hops(self, built):
        net, workers, graph = built
        for members in (workers, list(graph.nodes)):
            expected = max(
                networkx.single_source_shortest_path_length(graph, a)[b]
                for a in members
                for b in members
            )
            assert net.diameter_hops(members) == expected
