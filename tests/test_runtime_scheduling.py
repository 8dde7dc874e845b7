"""Unit + integration tests for lazy tracking, distribution, the
per-worker scheduler, the daemon and the execution engine."""

import pytest

from repro.apps import Task, make_layered_dag
from repro.core import ComputeNode, ComputeNodeParams, FunctionRegistry
from repro.core.runtime import (
    DistributionPolicy,
    ExecutionEngine,
    LazyStatusTracker,
    LocalWorkQueue,
    ReconfigurationDaemon,
    WorkDistributor,
)
from repro.fabric import ModuleLibrary
from repro.hls import (
    HlsTool,
    SynthesisConstraints,
    montecarlo_kernel,
    saxpy_kernel,
    stencil_kernel,
)
from repro.sim import Simulator


@pytest.fixture(scope="module")
def compiled():
    registry = FunctionRegistry()
    lib = ModuleLibrary()
    tool = HlsTool()
    for k in (saxpy_kernel(1024), stencil_kernel(1024), montecarlo_kernel(1024, 8)):
        registry.register(k)
        tool.compile(k, lib, SynthesisConstraints(max_variants=2))
    return registry, lib


def make_engine(workers=4, **kw):
    sim = Simulator()
    node = ComputeNode(sim, ComputeNodeParams(num_workers=workers))
    return sim, node


class TestLazyTracker:
    def make(self, lazy=True, refresh=1000.0, n=4):
        sim = Simulator()
        queues = [LocalWorkQueue(sim, i) for i in range(n)]
        return sim, queues, LazyStatusTracker(sim, queues, refresh, lazy=lazy)

    def test_local_state_free(self):
        sim, queues, tr = self.make()
        queues[0].push(Task("f", 10, 0, 0))
        assert tr.estimated_load(0, 0) == 1
        assert tr.status_messages == 0

    def test_eager_polls_every_query(self):
        sim, queues, tr = self.make(lazy=False)
        for _ in range(10):
            tr.estimated_load(0, 1)
        assert tr.status_messages == 10

    def test_lazy_caches_within_interval(self):
        sim, queues, tr = self.make(lazy=True, refresh=1000.0)
        for _ in range(10):
            tr.estimated_load(0, 1)
        assert tr.status_messages == 1  # one refresh, nine cache hits

    def test_lazy_refreshes_after_interval(self):
        sim, queues, tr = self.make(lazy=True, refresh=1000.0)
        tr.estimated_load(0, 1)
        sim.schedule(2000.0, lambda _: None)
        sim.run()
        tr.estimated_load(0, 1)
        assert tr.status_messages == 2

    def test_staleness_error(self):
        sim, queues, tr = self.make(lazy=True)
        tr.estimated_load(0, 1)          # caches 0
        queues[1].push(Task("f", 10, 0, 0))
        assert tr.staleness_error() == 1.0

    def test_least_loaded(self):
        sim, queues, tr = self.make(lazy=False)
        queues[0].push(Task("f", 10, 0, 0))
        queues[0].push(Task("f", 10, 0, 0))
        queues[1].push(Task("f", 10, 0, 0))
        assert tr.least_loaded(0) == 2

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            LazyStatusTracker(sim, [], refresh_interval_ns=0)


class TestDistributor:
    def make(self, workers=4, **policy_kw):
        sim = Simulator()
        node = ComputeNode(sim, ComputeNodeParams(num_workers=workers))
        queues = [LocalWorkQueue(sim, i) for i in range(workers)]
        tracker = LazyStatusTracker(sim, queues, lazy=False)
        dist = WorkDistributor(node, queues, tracker, DistributionPolicy(**policy_kw))
        return sim, node, queues, dist

    def test_prefers_data_worker_when_idle(self):
        _, _, _, dist = self.make()
        t = Task("f", 100, data_worker=2, affinity_worker=2, input_bytes=4096, output_bytes=4096)
        assert dist.choose_worker(t) == 2
        assert dist.locality_fraction() == 1.0

    def test_load_pushes_task_away(self):
        _, _, queues, dist = self.make(load_penalty_ns=10**9)
        for _ in range(5):
            queues[2].push(Task("f", 10, 2, 2))
        t = Task("f", 100, data_worker=2, affinity_worker=2, input_bytes=64, output_bytes=64)
        assert dist.choose_worker(t) != 2
        assert dist.placements_remote == 1

    def test_data_affinity_only_ablation(self):
        _, _, queues, dist = self.make(data_affinity_only=True)
        for _ in range(100):
            queues[2].push(Task("f", 10, 2, 2))
        t = Task("f", 100, data_worker=2, affinity_worker=2, input_bytes=64, output_bytes=64)
        assert dist.choose_worker(t) == 2  # ignores the pile-up

    def test_dispatch_enqueues(self):
        _, _, queues, dist = self.make()
        t = Task("f", 100, data_worker=1, affinity_worker=1)
        w = dist.dispatch(t)
        assert queues[w].depth == 1

    def test_queue_count_validation(self):
        sim = Simulator()
        node = ComputeNode(sim, ComputeNodeParams(num_workers=2))
        with pytest.raises(ValueError):
            WorkDistributor(node, [], LazyStatusTracker(sim, [], 10.0))


class TestEngineEndToEnd:
    def run_graph(self, compiled, use_daemon=True, allow_hardware=True, seed=4,
                  layers=5, width=8, workers=4, **engine_kw):
        registry, lib = compiled
        sim = Simulator()
        node = ComputeNode(sim, ComputeNodeParams(num_workers=workers))
        engine = ExecutionEngine(
            node,
            registry,
            lib,
            use_daemon=use_daemon,
            daemon_period_ns=100_000.0,
            allow_hardware=allow_hardware,
            **engine_kw,
        )
        graph = make_layered_dag(
            layers=layers, width=width, num_workers=workers,
            functions=("saxpy", "stencil5", "montecarlo"), seed=seed,
        )
        return engine, engine.run_graph(graph)

    def test_all_tasks_complete(self, compiled):
        engine, report = self.run_graph(compiled)
        assert report.sw_calls + report.hw_calls == report.tasks
        assert report.makespan_ns > 0
        assert report.energy_pj > 0

    def test_daemon_moves_work_to_hardware(self, compiled):
        engine, with_daemon = self.run_graph(compiled, use_daemon=True)
        _, without = self.run_graph(compiled, use_daemon=False)
        assert with_daemon.hw_calls > 0
        assert without.hw_calls == 0
        assert with_daemon.reconfigurations > 0
        assert without.reconfigurations == 0

    def test_hardware_improves_energy_at_bounded_makespan(self, compiled):
        """The system-level acceleration claim: offloading to the fabric
        cuts total energy substantially.  Makespan stays comparable (the
        shared pool serializes, while 4 Workers x 4 cores run fully
        parallel), so we bound it rather than demand a win."""
        _, hw = self.run_graph(compiled, use_daemon=True, layers=8, width=12)
        _, sw = self.run_graph(compiled, allow_hardware=False, use_daemon=False,
                               layers=8, width=12)
        assert hw.energy_pj < 0.75 * sw.energy_pj
        assert hw.makespan_ns < 1.5 * sw.makespan_ns

    def test_history_populated(self, compiled):
        engine, report = self.run_graph(compiled)
        assert len(engine.history) == report.tasks
        assert set(engine.history.functions()) <= {"saxpy", "stencil5", "montecarlo"}

    def test_lazy_fewer_status_messages_than_eager(self, compiled):
        _, lazy = self.run_graph(compiled, lazy_status=True, seed=7)
        _, eager = self.run_graph(compiled, lazy_status=False, seed=7)
        assert lazy.status_messages < eager.status_messages

    def test_report_properties(self, compiled):
        _, report = self.run_graph(compiled)
        assert 0.0 <= report.hw_fraction <= 1.0
        assert report.device_mix["sw"] == report.sw_calls


class TestDaemon:
    def test_validation(self, compiled):
        registry, lib = compiled
        sim = Simulator()
        node = ComputeNode(sim, ComputeNodeParams(num_workers=2))
        from repro.core.runtime import ExecutionHistory
        from repro.core import UnilogicDomain

        with pytest.raises(ValueError):
            ReconfigurationDaemon(
                node, UnilogicDomain(node), lib, registry, ExecutionHistory(),
                period_ns=0,
            )

    def test_ranks_hot_unhosted_functions(self, compiled):
        registry, lib = compiled
        sim = Simulator()
        node = ComputeNode(sim, ComputeNodeParams(num_workers=2))
        from repro.core.runtime import ExecutionHistory
        from repro.core import UnilogicDomain

        history = ExecutionHistory()
        for _ in range(10):
            history.record(function="montecarlo", device="sw", worker=0,
                           items=1024, latency_ns=1e6, energy_pj=1e6, timestamp=0.0)
        history.record(function="not_in_library", device="sw", worker=0,
                       items=10, latency_ns=1e9, energy_pj=1.0, timestamp=0.0)
        daemon = ReconfigurationDaemon(
            node, UnilogicDomain(node), lib, registry, history, period_ns=1000.0
        )
        ranked = daemon.rank_candidates()
        assert ranked
        assert ranked[0][1] == "montecarlo"
        assert all(f != "not_in_library" for _, f in ranked)
