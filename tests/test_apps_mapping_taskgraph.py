"""Unit tests for mappings, communication costing and task graphs."""

import hashlib
import json

import pytest

from repro.apps import (
    Task,
    TaskGraph,
    block_mapping,
    communication_bytes,
    cyclic_mapping,
    decompose_grid,
    halo_pairs,
    make_layered_dag,
    random_mapping,
)
from repro.interconnect import build_tree
from repro.sim import Simulator


class TestMappings:
    def test_block_contiguous(self):
        m = block_mapping(8, ["a", "b"])
        assert [m[i] for i in range(8)] == ["a"] * 4 + ["b"] * 4

    def test_cyclic_alternates(self):
        m = cyclic_mapping(4, ["a", "b"])
        assert [m[i] for i in range(4)] == ["a", "b", "a", "b"]

    def test_random_deterministic_by_seed(self):
        assert random_mapping(10, ["a", "b"], seed=3) == random_mapping(10, ["a", "b"], seed=3)

    def test_empty_workers_rejected(self):
        for fn in (block_mapping, cyclic_mapping, random_mapping):
            with pytest.raises(ValueError):
                fn(4, [])


class TestCommunicationCosting:
    def test_block_beats_cyclic_on_tree(self):
        """The Fig. 1 claim in miniature: locality-preserving mapping of a
        stencil onto the hierarchy moves far fewer link-bytes."""
        sim = Simulator()
        net, workers = build_tree(sim, [4, 4])
        d = decompose_grid(64, 64)  # 8x8 subdomains, 4 per worker
        pairs = halo_pairs(d)
        block = communication_bytes(pairs, block_mapping(64, workers), net)
        cyclic = communication_bytes(pairs, cyclic_mapping(64, workers), net)
        assert block["link_bytes"] < cyclic["link_bytes"]
        assert block["energy_pj"] < cyclic["energy_pj"]
        assert block["mean_hops"] < cyclic["mean_hops"]

    def test_same_worker_pairs_free(self):
        sim = Simulator()
        net, workers = build_tree(sim, [2, 2])
        pairs = [(0, 1, 100)]
        metrics = communication_bytes(pairs, {0: workers[0], 1: workers[0]}, net)
        assert metrics["link_bytes"] == 0
        assert metrics["local_pairs"] == 1

    def test_rounds_multiply_traffic(self):
        sim = Simulator()
        net, workers = build_tree(sim, [2, 2])
        pairs = [(0, 1, 100)]
        mapping = {0: workers[0], 1: workers[1]}
        one = communication_bytes(pairs, mapping, net, rounds=1)
        ten = communication_bytes(pairs, mapping, net, rounds=10)
        assert ten["link_bytes"] == 10 * one["link_bytes"]

    def test_rounds_validation(self):
        sim = Simulator()
        net, workers = build_tree(sim, [2, 2])
        with pytest.raises(ValueError):
            communication_bytes([], {}, net, rounds=0)


class TestTaskGraph:
    def test_generation_shape(self):
        g = make_layered_dag(layers=4, width=6, num_workers=4, seed=1)
        assert len(g) == 24
        assert g.width() == 6
        assert g.critical_path_length() == 4

    def test_deps_respect_layering(self):
        g = make_layered_dag(layers=5, width=4, num_workers=2, seed=2)
        for t in g.tasks:
            for d in t.deps:
                assert g.task(d).layer < t.layer

    def test_locality_knob(self):
        local = make_layered_dag(6, 20, 8, locality=1.0, seed=3)
        remote = make_layered_dag(6, 20, 8, locality=0.0, seed=3)
        local_frac = sum(
            1 for t in local.tasks if t.data_worker == t.affinity_worker
        ) / len(local)
        remote_frac = sum(
            1 for t in remote.tasks if t.data_worker == t.affinity_worker
        ) / len(remote)
        assert local_frac == 1.0
        assert remote_frac == 0.0

    def test_deterministic_by_seed(self):
        a = make_layered_dag(3, 3, 2, seed=9)
        b = make_layered_dag(3, 3, 2, seed=9)
        assert [t.function for t in a.tasks] == [t.function for t in b.tasks]
        assert [t.items for t in a.tasks] == [t.items for t in b.tasks]

    def test_functions_listed(self):
        g = make_layered_dag(2, 10, 2, functions=("fft", "blur"), seed=0)
        assert set(g.functions()) <= {"fft", "blur"}

    def test_validation(self):
        with pytest.raises(ValueError):
            make_layered_dag(0, 1, 1)
        with pytest.raises(ValueError):
            make_layered_dag(1, 1, 1, locality=2.0)
        with pytest.raises(ValueError):
            make_layered_dag(1, 1, 1, functions=())
        with pytest.raises(ValueError):
            Task(function="f", items=0, data_worker=0, affinity_worker=0)

    def test_bad_dependency_rejected(self):
        t1 = Task("f", 10, 0, 0, layer=0)
        bad = Task("g", 10, 0, 0, layer=0, deps=(t1.task_id,))
        with pytest.raises(ValueError):
            TaskGraph([t1, bad])  # same-layer dep violates layering
        with pytest.raises(ValueError):
            TaskGraph([Task("f", 1, 0, 0, layer=1, deps=(999999,))])


def _dag_rows(layers, width, workers, seed):
    """``[function, items, data_worker, affinity_worker, dep indices]``
    per task, deps given as positions in the task list (task ids come
    from a process-global counter)."""
    graph = make_layered_dag(layers, width, workers, seed=seed)
    index = {t.task_id: i for i, t in enumerate(graph.tasks)}
    return [
        [t.function, t.items, t.data_worker, t.affinity_worker,
         [index[d] for d in t.deps]]
        for t in graph.tasks
    ]


class TestLayeredDagGolden:
    """Rows pinned from the generator before its loop was hoisted: the
    RNG draw sequence, and so every generated graph, must not move."""

    def test_small_shape_rows(self):
        assert _dag_rows(3, 4, 2, 0) == [
            ["saxpy", 6721, 0, 0, []],
            ["saxpy", 4700, 0, 0, []],
            ["saxpy", 6932, 1, 1, []],
            ["stencil5", 5291, 0, 1, []],
            ["stencil5", 6703, 0, 0, [2, 0]],
            ["montecarlo", 6288, 0, 0, [2, 3]],
            ["montecarlo", 1116, 0, 1, [0, 2]],
            ["saxpy", 4068, 1, 1, [0, 1]],
            ["saxpy", 4419, 0, 0, [5, 6]],
            ["montecarlo", 7106, 0, 0, [6, 4]],
            ["montecarlo", 7269, 0, 1, [7, 6]],
            ["montecarlo", 2510, 1, 1, [7, 5]],
        ]

    @pytest.mark.parametrize(
        "shape, count, sha256",
        [
            ((3, 4, 2, 0), 12,
             "973b716d3dd1ee9cd18ee8b699ee8d35ae5d5530d72980f41da79602bd9e6553"),
            ((6, 24, 16, 7), 144,
             "7b27266bd61cf3fa3bc4eb4d784dd21a94144f7ad090be3f37a0ef9eda8c3278"),
            # one worker: a non-local draw picks from [affinity] itself
            ((4, 5, 1, 3), 20,
             "87ca219be5fdd077215d2a5ce112da7c41e100b9aeba6fa3fc82abc3f0857dfb"),
        ],
    )
    def test_rows_digest(self, shape, count, sha256):
        rows = _dag_rows(*shape)
        assert len(rows) == count
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == sha256
