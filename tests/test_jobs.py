"""Tests for the three-layer runtime split: the scheduling-policy layer,
the session/job layer (JobManager, fair-share admission, MachineReport)
and the job-agnostic mechanism layer underneath.

The bit-identical guarantee for the legacy single-job path is covered
implicitly by every pre-existing runtime/chaos test (their expectations
were written against the monolithic engine); this module covers what is
*new*: pluggable per-job policies, concurrent tenants, fair shares, and
per-job accounting.
"""

import pytest

from repro.apps import graph_signature, make_layered_dag
from repro.core import ComputeNode, ComputeNodeParams
from repro.core.runtime import (
    POLICIES,
    DistributionPolicy,
    EnergyAwarePolicy,
    ExecutionEngine,
    GreedyHardwarePolicy,
    JobManager,
    JobRegistry,
    JobState,
    LocalityPolicy,
    MachineReport,
    PolicyConfig,
    make_policy,
)
from repro.presets import JOB_PRESETS, compiled_suite, job_preset
from repro.sim import Simulator

FUNCTIONS = ("saxpy", "stencil5", "montecarlo")


@pytest.fixture(scope="module")
def compiled():
    return compiled_suite(max_variants=1)


def build_engine(compiled, workers=4, **kw):
    registry, library = compiled
    sim = Simulator()
    node = ComputeNode(sim, ComputeNodeParams(num_workers=workers))
    engine = ExecutionEngine(
        node, registry, library, use_daemon=True, daemon_period_ns=100_000.0,
        **kw,
    )
    return sim, node, engine


def graph_for(workers, layers=4, width=8, seed=7):
    return make_layered_dag(
        layers=layers, width=width, num_workers=workers,
        functions=FUNCTIONS, seed=seed,
    )


# ----------------------------------------------------------------------
# policy layer
# ----------------------------------------------------------------------
class TestPolicyLayer:
    def test_registry_has_three_builtin_policies(self):
        assert set(POLICIES) == {"greedy-hw", "energy", "locality"}
        for name in POLICIES:
            assert make_policy(name).name == name

    def test_unknown_policy_raises(self):
        with pytest.raises(KeyError, match="unknown policy"):
            make_policy("round-robin")

    def test_distribution_policy_is_the_shared_config(self):
        # the old scheduler/distributor constant duplication collapsed
        # into one dataclass; the legacy name stays constructible
        assert DistributionPolicy is PolicyConfig
        cfg = DistributionPolicy(load_penalty_ns=1e9, data_affinity_only=True)
        assert cfg.load_penalty_ns == 1e9
        assert cfg.remote_hop_penalty_ns == 10.0   # ex-scheduler constant
        assert cfg.remote_noc_bytes_per_ns == 4.0  # ex-scheduler constant

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PolicyConfig(remote_noc_bytes_per_ns=0.0)
        with pytest.raises(ValueError):
            PolicyConfig(energy_ns_per_pj=-1.0)

    def test_policies_share_config_instance(self):
        cfg = PolicyConfig(load_penalty_ns=123.0)
        for cls in (GreedyHardwarePolicy, EnergyAwarePolicy, LocalityPolicy):
            assert cls(cfg).config is cfg

    def test_same_graph_every_policy_same_results(self, compiled):
        """Property: the same seeded workload completes identically under
        every built-in policy -- placement and makespan may differ, the
        task *results* (workload signature, full completion) may not."""
        outcomes = {}
        for name in sorted(POLICIES):
            sim, node, engine = build_engine(compiled, policy=make_policy(name))
            graph = graph_for(4, seed=13)
            report = engine.run_graph(graph)
            outcomes[name] = (graph_signature(graph), report)
        signatures = [sig for sig, _ in outcomes.values()]
        # identical workload ran
        assert all(sig == signatures[0] for sig in signatures)
        for name, (_, report) in outcomes.items():
            assert report.tasks == 32, name
            assert report.sw_calls + report.hw_calls >= report.tasks, name
            assert report.tasks_unrecovered == 0, name
            assert report.makespan_ns > 0, name

    def test_policies_actually_differ_in_placement(self, compiled):
        """The plugability is real: locality placement pins tasks to
        their data home, which the greedy default does not."""
        results = {}
        for name in ("greedy-hw", "locality"):
            sim, node, engine = build_engine(compiled, policy=make_policy(name))
            report = engine.run_graph(graph_for(4, seed=13))
            results[name] = report.placement_locality
        assert results["locality"] == 1.0
        assert results["locality"] >= results["greedy-hw"]


# ----------------------------------------------------------------------
# session/job layer
# ----------------------------------------------------------------------
class TestJobManager:
    def test_three_concurrent_jobs_distinct_policies(self, compiled):
        sim, node, engine = build_engine(compiled)
        manager = JobManager(engine)
        handles = [
            manager.submit_job(graph_for(4, seed=1), policy="greedy-hw", priority=2),
            manager.submit_job(graph_for(4, seed=2), policy="energy"),
            manager.submit_job(graph_for(4, seed=3), policy="locality"),
        ]
        report = manager.run()

        assert isinstance(report, MachineReport)
        assert len(report.jobs) == 3
        assert report.tasks == 3 * 32
        for handle in handles:
            assert handle.state is JobState.DONE
            assert handle.report is not None
            assert handle.report.tasks == 32
            assert handle.report.availability_ok
            assert handle.latency_ns > 0
        # distinct policies were actually recorded per job
        assert [j.policy for j in report.jobs] == ["greedy-hw", "energy", "locality"]
        # the machine interleaved them: every job overlapped the others
        assert all(h.started_at == 0.0 for h in handles)
        assert report.makespan_ns >= max(h.latency_ns for h in handles)

    def test_per_job_accounting_sums_to_machine_totals(self, compiled):
        sim, node, engine = build_engine(compiled)
        manager = JobManager(engine)
        manager.submit_job(graph_for(4, seed=1), policy="greedy-hw")
        manager.submit_job(graph_for(4, seed=2), policy="locality")
        report = manager.run()

        assert report.sw_calls == sum(s.sw_chosen for s in engine.schedulers)
        assert report.hw_calls == sum(s.hw_chosen for s in engine.schedulers)
        # worker-side tenant accounting covers the same calls
        by_job = {}
        for w in node.workers:
            for job_id, calls in w.calls_by_job.items():
                by_job[job_id] = by_job.get(job_id, 0) + calls
        assert sum(by_job.values()) == report.sw_calls + report.hw_calls
        assert set(by_job) == {1, 2}
        # history records carry the job dimension
        assert set(engine.history.call_counts_by_job()) == {1, 2}
        # the shared fabric's arbitration is observable per tenant
        util = engine.unilogic.utilization_by_job()
        assert sum(util.values()) == report.hw_calls

    def test_machine_report_deterministic_for_fixed_seed(self, compiled):
        def one_run():
            sim, node, engine = build_engine(compiled)
            manager = JobManager(engine)
            for i, policy in enumerate(("greedy-hw", "energy", "locality")):
                manager.submit_job(
                    graph_for(4, seed=10 + i), policy=policy, priority=i + 1
                )
            return manager.run()

        a, b = one_run(), one_run()
        assert a.json() == b.json()
        assert a.makespan_ns == b.makespan_ns
        assert 0.0 < a.fairness_index() <= 1.0

    def test_fair_share_admission_respects_priorities(self, compiled):
        sim, node, engine = build_engine(compiled, workers=2)
        manager = JobManager(engine, slots_per_worker=2)   # 4 slots total
        hi = manager.submit_job(graph_for(2, width=12, seed=4), priority=3)
        lo = manager.submit_job(graph_for(2, width=12, seed=5), priority=1)
        manager.run()

        assert hi.share == 3 and lo.share == 1
        assert 0 < hi.peak_in_flight <= hi.share
        assert 0 < lo.peak_in_flight <= lo.share

    def test_priority_weighting_speeds_up_the_heavy_tenant(self, compiled):
        def latencies(p1, p2):
            sim, node, engine = build_engine(compiled, workers=2)
            manager = JobManager(engine, slots_per_worker=2)
            a = manager.submit_job(graph_for(2, width=10, seed=6), priority=p1)
            b = manager.submit_job(graph_for(2, width=10, seed=8), priority=p2)
            manager.run()
            return a.latency_ns, b.latency_ns

        fair_a, fair_b = latencies(1, 1)
        fast_a, slow_b = latencies(3, 1)
        # tripling job A's weight must not slow it down; its competitor
        # bears the cost (weighted fair share, not strict priority)
        assert fast_a <= fair_a
        assert slow_b >= fair_b

    def test_policy_argument_forms(self, compiled):
        sim, node, engine = build_engine(compiled, workers=2)
        manager = JobManager(engine)
        by_name = manager.submit_job(graph_for(2, seed=1), policy="energy")
        by_instance = manager.submit_job(
            graph_for(2, seed=2), policy=LocalityPolicy(engine.policy_config)
        )
        default = manager.submit_job(graph_for(2, seed=3))
        assert by_name.policy.name == "energy"
        assert by_instance.policy.name == "locality"
        assert default.policy is engine.default_policy
        manager.run()
        assert all(
            h.state is JobState.DONE for h in (by_name, by_instance, default)
        )

    def test_submit_validation(self, compiled):
        sim, node, engine = build_engine(compiled, workers=2)
        manager = JobManager(engine)
        with pytest.raises(ValueError, match="priority"):
            manager.submit_job(graph_for(2), priority=0)
        with pytest.raises(KeyError, match="unknown policy"):
            manager.submit_job(graph_for(2), policy="nope")
        with pytest.raises(ValueError):
            JobManager(engine, slots_per_worker=0)

    def test_dataflow_jobs_supported(self, compiled):
        sim, node, engine = build_engine(compiled, workers=2)
        manager = JobManager(engine)
        h = manager.submit_job(graph_for(2, seed=9), dataflow=True)
        report = manager.run()
        assert h.state is JobState.DONE
        assert report.job(h.job_id).report.tasks == 32

    def test_registry_defaults_and_direct_submission(self, compiled):
        # untagged mechanism-level submissions land on the implicit job 0
        sim, node, engine = build_engine(compiled, workers=2)
        engine.start()
        items = engine.submit_layer(graph_for(2, layers=1, seed=3).tasks)
        engine.stop()
        sim.run()
        assert all(i.job_id == 0 for i in items)
        assert engine.jobs.record(0).tasks_done == len(items)

    def test_registry_unknown_job_resolves_to_default_policy(self):
        registry = JobRegistry(GreedyHardwarePolicy())
        rec = registry.record(99)
        assert rec.policy is registry.default_policy
        assert registry.policy(99).name == "greedy-hw"


# ----------------------------------------------------------------------
# presets / CLI surface
# ----------------------------------------------------------------------
class TestJobPresets:
    def test_every_mix_has_three_plus_jobs_with_distinct_policies(self):
        for name, mix in JOB_PRESETS.items():
            assert len(mix.jobs) >= 3, name
            assert len({spec.policy for spec in mix.jobs}) >= 3, name

    def test_job_preset_lookup(self):
        assert job_preset("mini") is JOB_PRESETS["mini"]
        with pytest.raises(KeyError, match="unknown job preset"):
            job_preset("nope")

    def test_mini_mix_runs_end_to_end(self, compiled):
        mix = job_preset("mini")
        sim, node, engine = build_engine(compiled, workers=2)
        manager = JobManager(engine)
        for spec in mix.jobs:
            graph = make_layered_dag(
                layers=spec.layers, width=spec.width, num_workers=2,
                functions=FUNCTIONS, seed=spec.graph_seed,
            )
            manager.submit_job(
                graph, policy=spec.policy, priority=spec.priority,
                dataflow=spec.dataflow,
            )
        report = manager.run()
        assert report.availability_ok
        assert len(report.jobs) == len(mix.jobs)
        assert report.tasks == sum(s.layers * s.width for s in mix.jobs)
