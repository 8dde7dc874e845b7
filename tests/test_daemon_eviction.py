"""Regression tests for the daemon's decayed hotness + cold eviction.

The original daemon summed raw call counts over a trailing window and
never decayed them across control periods, so a function that was hot
once kept its fabric region forever.  These tests pin the fixed
behaviour: hotness decays every period, stale-hot functions are evicted
with hysteresis, and the blanked regions are reused for the currently
hot work -- including while multiple JobManager jobs run concurrently.
"""

import pytest

from repro.core import ComputeNode, ComputeNodeParams, UnilogicDomain
from repro.core.runtime import (
    ExecutionEngine,
    ExecutionHistory,
    JobManager,
    ReconfigurationDaemon,
)
from repro.apps import make_layered_dag
from repro.core.resilience import FaultInjector
from repro.presets import compiled_suite
from repro.sim import Simulator, Timeout, spawn

PERIOD = 100_000.0


@pytest.fixture(scope="module")
def compiled():
    # max_variants=2 keeps hardware decisively faster than software, so
    # every suite kernel is a genuine acceleration candidate
    return compiled_suite(max_variants=2)


def make_daemon(compiled, workers=2, **kw):
    registry, library = compiled
    sim = Simulator()
    node = ComputeNode(sim, ComputeNodeParams(num_workers=workers))
    history = ExecutionHistory()
    kw.setdefault("period_ns", PERIOD)
    kw.setdefault("window_ns", 2 * PERIOD)
    kw.setdefault("decay", 0.5)
    kw.setdefault("evict_hotness", 1.0)
    kw.setdefault("evict_after_periods", 2)
    daemon = ReconfigurationDaemon(
        node, UnilogicDomain(node), library, registry, history, **kw
    )
    return sim, node, history, daemon


def seed_calls(history, function, n, latency_ns=1e6, timestamp=0.0):
    for _ in range(n):
        history.record(function=function, device="sw", worker=0, items=1024,
                       latency_ns=latency_ns, energy_pj=1e6,
                       timestamp=timestamp)


def loaded(node):
    out = set()
    for w in node.workers:
        out.update(w.fabric.loaded_functions())
    return out


class TestHotnessDecay:
    def test_param_validation(self, compiled):
        with pytest.raises(ValueError):
            make_daemon(compiled, decay=1.0)
        with pytest.raises(ValueError):
            make_daemon(compiled, decay=-0.1)
        with pytest.raises(ValueError):
            make_daemon(compiled, evict_after_periods=0)

    def test_hotness_decays_across_quiet_periods(self, compiled):
        """Regression: raw window counts never decayed, so a gone-quiet
        function kept its rank forever.  Scores must shrink period over
        period once the traffic stops."""
        sim, node, history, daemon = make_daemon(compiled)
        seed_calls(history, "montecarlo", 16)
        track = []

        def driver():
            for _ in range(4):
                yield Timeout(PERIOD)
                yield from daemon.evaluate()
                track.append(daemon.hotness.get("montecarlo", 0.0))

        spawn(sim, driver())
        sim.run()
        assert track[0] == pytest.approx(16.0)
        for prev, cur in zip(track, track[1:]):
            assert cur < prev
        assert track[-1] == pytest.approx(16.0 * 0.5 ** 3)

    def test_refresh_idempotent_at_one_instant(self, compiled):
        sim, node, history, daemon = make_daemon(compiled)
        seed_calls(history, "montecarlo", 8)
        daemon.rank_candidates()
        daemon.rank_candidates()   # same instant: must not double count
        assert daemon.hotness["montecarlo"] == pytest.approx(8.0)

    def test_fresh_traffic_tops_hotness_up(self, compiled):
        sim, node, history, daemon = make_daemon(compiled)
        seed_calls(history, "montecarlo", 8)
        done = []

        def driver():
            yield Timeout(PERIOD)
            yield from daemon.evaluate()          # 8.0
            seed_calls(history, "montecarlo", 4, timestamp=sim.now)
            yield Timeout(PERIOD)
            yield from daemon.evaluate()          # 8*0.5 + 4
            done.append(daemon.hotness["montecarlo"])

        spawn(sim, driver())
        sim.run()
        assert done[0] == pytest.approx(8.0 * 0.5 + 4.0)


class TestColdEviction:
    def run_quiet_periods(self, compiled, periods, **kw):
        sim, node, history, daemon = make_daemon(compiled, **kw)
        seed_calls(history, "montecarlo", 16)
        timeline = []

        def driver():
            for _ in range(periods):
                yield Timeout(PERIOD)
                yield from daemon.evaluate()
                timeline.append(("montecarlo" in loaded(node),
                                 daemon.stats.evictions))

        spawn(sim, driver())
        sim.run()
        return node, daemon, timeline

    def test_stale_hot_function_is_evicted(self, compiled):
        node, daemon, timeline = self.run_quiet_periods(compiled, periods=8)
        assert timeline[0][0]                      # loaded on first period
        assert daemon.stats.evictions == 1
        assert daemon.stats.functions_evicted == ["montecarlo"]
        assert "montecarlo" not in loaded(node)    # region blanked

    def test_one_cold_period_is_not_enough(self, compiled):
        """Hysteresis: the cold streak must reach evict_after_periods."""
        node, daemon, timeline = self.run_quiet_periods(
            compiled, periods=12, evict_after_periods=4
        )
        # count periods where it was still loaded after going cold once
        evict_period = next(
            (i for i, (_, ev) in enumerate(timeline) if ev), None
        )
        assert evict_period is not None
        # with a longer streak requirement the eviction lands later than
        # it would at the default streak of 2
        _, _, fast = self.run_quiet_periods(compiled, periods=8)
        fast_period = next(i for i, (_, ev) in enumerate(fast) if ev)
        assert evict_period > fast_period

    def test_busy_function_is_never_evicted(self, compiled):
        sim, node, history, daemon = make_daemon(compiled)
        seed_calls(history, "montecarlo", 16)

        def driver():
            for _ in range(8):
                yield Timeout(PERIOD)
                yield from daemon.evaluate()
                # steady traffic keeps the score above evict_hotness
                seed_calls(history, "montecarlo", 8, timestamp=sim.now)
                for w in node.workers:
                    for r in w.fabric.regions:
                        if r.function == "montecarlo":
                            r.last_used_at = sim.now

        spawn(sim, driver())
        sim.run()
        assert daemon.stats.evictions == 0
        assert "montecarlo" in loaded(node)


class TestEvictionWithConcurrentJobs:
    def test_regions_are_recycled_between_job_waves(self, compiled):
        """Two concurrent montecarlo jobs make it hot; after a quiet gap
        the daemon evicts it, and a second wave of concurrent saxpy jobs
        gets the freed fabric -- the elastic reuse story end to end."""
        registry, library = compiled
        sim = Simulator()
        node = ComputeNode(sim, ComputeNodeParams(num_workers=2))
        engine = ExecutionEngine(node, registry, library, use_daemon=False)
        daemon = ReconfigurationDaemon(
            node, engine.unilogic, library, registry, engine.history,
            period_ns=PERIOD, window_ns=2 * PERIOD,
            decay=0.5, evict_hotness=1.0, evict_after_periods=2,
        )
        manager = JobManager(engine, fair_share=False, auto_stop=False)
        engine.start()
        spawn(sim, daemon.run(), name="daemon")

        def graph(functions, seed):
            return make_layered_dag(layers=3, width=4, num_workers=2,
                                    functions=functions, seed=seed)

        state = {}

        def driver():
            wave1 = [manager.submit_job(graph(("montecarlo",), s))
                     for s in (1, 2)]
            for h in wave1:
                yield h.done
            state["after_wave1"] = set(loaded(node))
            for _ in range(8):                   # quiet gap: cool + evict
                yield Timeout(PERIOD)
            state["after_gap"] = set(loaded(node))
            wave2 = [manager.submit_job(graph(("saxpy",), s))
                     for s in (3, 4)]
            for h in wave2:
                yield h.done
            for _ in range(2):                   # let the daemon observe
                yield Timeout(PERIOD)
            state["after_wave2"] = set(loaded(node))
            daemon.stop()
            engine.stop()

        spawn(sim, driver(), name="driver")
        sim.run()

        assert "montecarlo" in state["after_wave1"]
        assert "montecarlo" not in state["after_gap"]     # evicted cold
        assert "montecarlo" in daemon.stats.functions_evicted
        assert "saxpy" in state["after_wave2"]            # fabric reused
        assert daemon.stats.evictions >= 1
        assert daemon.stats.loads_triggered >= 2
        # both waves fully completed despite the reshaping fabric
        assert len(engine.history) == 4 * 3 * 4


class TestHostedSetCache:
    """The daemon reads the node's one view of which regions host what,
    rebuilt only when the node's region watch moved: a load, an
    eviction and a region fault must each show in the next ranking, and
    an unchanged fabric must not be rescanned."""

    @staticmethod
    def ranked(daemon):
        return {function for _, function in daemon.rank_candidates()}

    @staticmethod
    def load(sim, node, library, function, worker=0):
        w = node.workers[worker]
        capacity = max(
            (r.capacity for r in w.fabric.regions), key=lambda c: c.area_units()
        )
        module = library.best_variant(function, capacity=capacity)
        spawn(sim, w.load_module(module))
        sim.run()
        (region,) = [r for r in w.fabric.regions if r.function == function]
        return region

    def test_refreshes_after_load_evict_and_region_fault(self, compiled):
        _, library = compiled
        sim, node, history, daemon = make_daemon(compiled)
        seed_calls(history, "montecarlo", 16)
        seed_calls(history, "saxpy", 16)
        assert self.ranked(daemon) == {"montecarlo", "saxpy"}
        view = node.hosted_regions()
        # nothing moved: the next ranking reads the same view
        assert self.ranked(daemon) == {"montecarlo", "saxpy"}
        assert node.hosted_regions() is view

        region = self.load(sim, node, library, "montecarlo")
        assert self.ranked(daemon) == {"saxpy"}
        assert node.hosted_regions() == {"montecarlo": [(0, region)]}
        # UNILOGIC reads the same view
        assert UnilogicDomain(node).hosting_regions("montecarlo") == [(0, region)]

        node.workers[0].reconfig.unload(region)        # an eviction
        assert self.ranked(daemon) == {"montecarlo", "saxpy"}

        region = self.load(sim, node, library, "saxpy", worker=1)
        assert self.ranked(daemon) == {"montecarlo"}
        FaultInjector(node).inject_region_fault(1, region.region_id)
        assert self.ranked(daemon) == {"montecarlo", "saxpy"}
        assert node.hosted_regions() == {}
