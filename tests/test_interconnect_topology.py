"""Unit tests for topology builders."""

import networkx
import pytest

from repro.interconnect import (
    LinkParams,
    Message,
    build_dragonfly,
    build_fat_tree,
    build_flat_crossbar,
    build_mesh2d,
    build_slimfly_like,
    build_tree,
)
from repro.interconnect.topology import level_params
from repro.presets import NODE_PRESETS, build_preset_node
from repro.sim import Simulator
from tests.test_startup_imports import _modules_after


def _no_graph_search(*args, **kwargs):
    raise AssertionError("graph search on a tree-indexed network")


class TestLevelParams:
    def test_upper_levels_slower_and_costlier(self):
        p0, p1, p2 = level_params(0), level_params(1), level_params(2)
        assert p0.bandwidth_gbps > p1.bandwidth_gbps > p2.bandwidth_gbps
        assert p0.latency_ns < p1.latency_ns < p2.latency_ns
        assert p0.energy_per_byte_pj < p1.energy_per_byte_pj

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            level_params(-1)


class TestTree:
    def test_worker_count(self):
        net, workers = build_tree(Simulator(), [2, 3])
        assert len(workers) == 6
        assert all(w[0] == "w" for w in workers)

    def test_sibling_distance_two(self):
        net, workers = build_tree(Simulator(), [2, 4])
        # workers 0..3 share a switch
        assert net.hop_distance(workers[0], workers[1]) == 2

    def test_cross_subtree_distance_four(self):
        net, workers = build_tree(Simulator(), [2, 4])
        assert net.hop_distance(workers[0], workers[4]) == 4

    def test_deeper_tree_larger_diameter(self):
        _, w2 = None, None
        net2, workers2 = build_tree(Simulator(), [2, 2])
        net3, workers3 = build_tree(Simulator(), [2, 2, 2])
        assert net3.diameter_hops(workers3) > net2.diameter_hops(workers2)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_tree(Simulator(), [])
        with pytest.raises(ValueError):
            build_tree(Simulator(), [0, 2])
        with pytest.raises(ValueError):
            build_tree(Simulator(), [2, 2], [LinkParams()])  # wrong length

    def test_tree_is_indexed(self):
        net, _ = build_tree(Simulator(), [2, 3])
        assert net._tree_index is not None

    @pytest.mark.parametrize("preset", sorted(NODE_PRESETS))
    def test_preset_node_networks_route_without_search(self, preset, monkeypatch):
        # NUMA distances at bring-up and every worker-pair route must
        # come from the tree index, never from a networkx search
        monkeypatch.setattr(networkx, "shortest_path", _no_graph_search)
        monkeypatch.setattr(networkx, "single_source_dijkstra", _no_graph_search)
        node = build_preset_node(Simulator(), preset)
        assert node.network._tree_index is not None
        for a in node.endpoints:
            for b in node.endpoints:
                assert node.network.route(a, b).nodes[-1] == b

    def test_leaf_links_faster_than_root_links(self):
        net, workers = build_tree(Simulator(), [2, 2])
        route = net.route(workers[0], workers[3])  # through the root
        latencies = [l.params.latency_ns for l in route.links]
        # leaf-adjacent hops cheap, root hops expensive (symmetric path)
        assert latencies[0] < latencies[1]
        assert latencies[-1] < latencies[-2]


class TestFlatCrossbar:
    def test_uniform_two_hops(self):
        net, workers = build_flat_crossbar(Simulator(), 8)
        assert len(workers) == 8
        assert net.hop_distance(workers[0], workers[7]) == 2
        assert net.diameter_hops(workers) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            build_flat_crossbar(Simulator(), 0)

    def test_star_is_indexed(self):
        net, workers = build_flat_crossbar(Simulator(), 8)
        net.route(workers[0], workers[7])
        assert net._tree_index is not None

    def test_routes_without_networkx(self):
        loaded = _modules_after(
            "from repro.interconnect import build_flat_crossbar\n"
            "from repro.sim import Simulator\n"
            "net, workers = build_flat_crossbar(Simulator(), 8)\n"
            "net.route(workers[0], workers[7])"
        )
        assert "networkx" not in loaded


class TestFatTree:
    def test_uplinks_wider(self):
        net, workers = build_fat_tree(Simulator(), [2, 2], uplink_width=4)
        route = net.route(workers[0], workers[3])
        lanes = [l.params.width_lanes for l in route.links]
        assert max(lanes) > min(lanes)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_fat_tree(Simulator(), [2, 2], uplink_width=0)


class TestMesh:
    def test_manhattan_distance(self):
        net, workers = build_mesh2d(Simulator(), 3, 3)
        assert len(workers) == 9
        assert net.hop_distance(("w", 0), ("w", 8)) == 4  # corner to corner

    def test_validation(self):
        with pytest.raises(ValueError):
            build_mesh2d(Simulator(), 0, 3)


class TestDragonfly:
    def test_structure(self):
        net, workers = build_dragonfly(Simulator(), groups=3, routers_per_group=2, workers_per_router=2)
        assert len(workers) == 12
        # intra-group worker-to-worker: w -> r -> r -> w at most
        assert net.hop_distance(workers[0], workers[2]) <= 3

    def test_low_diameter(self):
        net, workers = build_dragonfly(Simulator(), 4, 4, 1)
        # dragonfly diameter for workers: w-r (1), local (1), global (1), local (1), r-w (1)
        assert net.diameter_hops(workers) <= 5

    def test_validation(self):
        with pytest.raises(ValueError):
            build_dragonfly(Simulator(), 0, 1, 1)


class TestSlimfly:
    def test_paley_router_fabric_diameter_two(self):
        net, workers = build_slimfly_like(Simulator(), q=13)
        routers = [n for n in net.nodes if n[0] == "r"]
        assert net.diameter_hops(routers) == 2

    def test_worker_diameter_at_most_four(self):
        net, workers = build_slimfly_like(Simulator(), q=13, workers_per_router=2)
        assert len(workers) == 26
        assert net.diameter_hops(workers) <= 4

    def test_q_validation(self):
        with pytest.raises(ValueError):
            build_slimfly_like(Simulator(), q=12)  # not prime
        with pytest.raises(ValueError):
            build_slimfly_like(Simulator(), q=7)   # 7 % 4 != 1


class TestTopologyComparison:
    def test_hierarchical_tree_cheaper_than_flat_for_local_traffic(self):
        """Neighbour exchange on the tree touches only leaf-level links;
        on the flat crossbar everything crosses the hub -- the core of the
        paper's Fig. 1 locality argument."""
        sim1, sim2 = Simulator(), Simulator()
        tree, tw = build_tree(sim1, [4, 4])
        flat, fw = build_flat_crossbar(sim2, 16, level_params(1))
        tree_energy = flat_energy = 0.0
        for i in range(0, 16, 2):  # sibling pairs on the tree
            lat, e = tree.send_cost(Message(tw[i], tw[i + 1], 4096))
            tree_energy += e
        for i in range(0, 16, 2):
            lat, e = flat.send_cost(Message(fw[i], fw[i + 1], 4096))
            flat_energy += e
        assert tree_energy < flat_energy
