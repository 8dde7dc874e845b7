"""Tests for machine-wide fault injection and the self-healing runtime.

Covers the chaos controller (seeded fault plans, determinism), the
degraded interconnect/MPI paths, crash-stop and transient Worker
failures with heartbeat detection + retry, disabled parity, and the
end-to-end acceptance scenario (board preset: one Worker killed
mid-graph, one link degraded, zero unrecovered tasks).
"""

import random

import pytest

from repro.apps import graph_signature, make_layered_dag
from repro.chaos import (
    CHAOS_PRESETS,
    ChaosConfig,
    ChaosController,
    run_chaos_experiment,
    run_multi_job_chaos_experiment,
)
from repro.core import ComputeNode, ComputeNodeParams, Machine, MachineParams
from repro.core.runtime import (
    ExecutionEngine,
    FaultTolerancePolicy,
    JobManager,
)
from repro.interconnect import Link, LinkParams
from repro.interconnect.link import LinkFault
from repro.interconnect.network import Network
from repro.mpi.comm import Communicator, MessageFaults
from repro.presets import compiled_suite
from repro.sim import Simulator, spawn

FUNCTIONS = ("saxpy", "stencil5", "montecarlo")


@pytest.fixture(scope="module")
def compiled():
    return compiled_suite(max_variants=1)


def build_engine(compiled, workers=2, ft=None, **kw):
    registry, library = compiled
    sim = Simulator()
    node = ComputeNode(sim, ComputeNodeParams(num_workers=workers))
    engine = ExecutionEngine(
        node, registry, library, use_daemon=True, daemon_period_ns=100_000.0,
        fault_tolerance=ft, **kw,
    )
    return sim, node, engine


def graph_for(workers, layers=5, width=10, seed=5):
    return make_layered_dag(
        layers=layers, width=width, num_workers=workers,
        functions=FUNCTIONS, seed=seed,
    )


# ----------------------------------------------------------------------
# link-layer faults
# ----------------------------------------------------------------------
class TestLinkFault:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinkFault(drop_rate=1.0)
        with pytest.raises(ValueError):
            LinkFault(drop_rate=-0.1)
        with pytest.raises(ValueError):
            LinkFault(latency_multiplier=0.5)
        with pytest.raises(ValueError):
            LinkFault(max_retransmits=-1)

    def test_latency_multiplier_slows_transfers(self):
        sim = Simulator()
        link = Link(sim, LinkParams(bandwidth_gbps=1.0, latency_ns=0.0))
        link.fault = LinkFault(latency_multiplier=2.0)
        done = []

        def sender():
            yield from link.transfer(100)
            done.append(sim.now)

        spawn(sim, sender())
        sim.run()
        assert done == [200.0]

    def test_outage_stalls_until_link_back_up(self):
        sim = Simulator()
        link = Link(sim, LinkParams(bandwidth_gbps=1.0, latency_ns=0.0))
        link.fault = LinkFault(down_until_ns=500.0)
        done = []

        def sender():
            yield from link.transfer(100)
            done.append(sim.now)

        spawn(sim, sender())
        sim.run()
        assert done == [600.0]
        assert link.fault.stalled_transfers == 1

    def test_drops_paid_as_bounded_retransmissions(self):
        sim = Simulator()
        link = Link(sim, LinkParams(bandwidth_gbps=1.0, latency_ns=0.0))
        # drop_rate ~1: every attempt up to the bound is lost
        link.fault = LinkFault(
            rng=random.Random(0), drop_rate=0.99, max_retransmits=3
        )
        done = []

        def sender():
            yield from link.transfer(100)
            done.append(sim.now)

        spawn(sim, sender())
        sim.run()
        assert done == [400.0]               # 1 try + 3 retransmissions
        assert link.fault.drops == 3
        assert link.bytes_carried == 400     # traffic/energy paid 4x

    def test_healthy_link_unchanged(self):
        sim = Simulator()
        link = Link(sim, LinkParams(bandwidth_gbps=1.0, latency_ns=0.0))
        done = []

        def sender():
            yield from link.transfer(100)
            done.append(sim.now)

        spawn(sim, sender())
        sim.run()
        assert done == [100.0]
        assert link.bytes_carried == 100

    def test_transfer_rejects_negative_size(self):
        sim = Simulator()
        link = Link(sim)
        with pytest.raises(ValueError):
            next(link.transfer(-4))


# ----------------------------------------------------------------------
# MPI message faults
# ----------------------------------------------------------------------
def two_node_comm():
    sim = Simulator()
    net = Network(sim)
    net.add_node("a")
    net.add_node("b")
    net.add_link("a", "b", LinkParams(bandwidth_gbps=1.0, latency_ns=10.0))
    return Communicator(net, ["a", "b"])


class TestMessageFaults:
    def test_validation(self):
        with pytest.raises(ValueError):
            MessageFaults(drop_rate=1.0)
        with pytest.raises(ValueError):
            MessageFaults(duplicate_rate=1.5)
        with pytest.raises(ValueError):
            MessageFaults(timeout_ns=-1)

    def test_losses_add_timeout_and_resend_latency(self):
        clean = two_node_comm()
        base_lat, base_e = clean.send(0, 1, 256)
        lossy = two_node_comm()
        lossy.faults = MessageFaults(
            rng=random.Random(0), drop_rate=0.99, max_retries=2, timeout_ns=100.0
        )
        lat, energy = lossy.send(0, 1, 256)
        assert lat == pytest.approx(base_lat * 3 + 200.0)
        assert energy == pytest.approx(base_e * 3)
        assert lossy.faults.lost == 2

    def test_duplicates_spend_energy_not_latency(self):
        clean = two_node_comm()
        base_lat, base_e = clean.send(0, 1, 256)
        dup = two_node_comm()
        dup.faults = MessageFaults(rng=random.Random(0), duplicate_rate=1.0)
        lat, energy = dup.send(0, 1, 256)
        assert lat == pytest.approx(base_lat)
        assert energy == pytest.approx(base_e * 2)
        assert dup.faults.duplicated == 1

    def test_same_seed_same_costs(self):
        costs = []
        for _ in range(2):
            comm = two_node_comm()
            comm.faults = MessageFaults(rng=random.Random(9), drop_rate=0.5)
            costs.append([comm.send(0, 1, 128) for _ in range(20)])
        assert costs[0] == costs[1]

    def test_self_send_free_even_when_lossy(self):
        comm = two_node_comm()
        comm.faults = MessageFaults(rng=random.Random(0), drop_rate=0.9)
        assert comm.send(0, 0, 4096) == (0.0, 0.0)

    def test_collectives_survive_lossy_channel(self):
        comm = two_node_comm()
        clean = comm.allreduce(1024).latency_ns
        comm.faults = MessageFaults(rng=random.Random(1), drop_rate=0.5)
        lossy = comm.allreduce(1024).latency_ns
        assert lossy >= clean


# ----------------------------------------------------------------------
# self-healing runtime: crash-stop, detection, retry, rejoin
# ----------------------------------------------------------------------
class TestSelfHealingRuntime:
    def test_permanent_crash_redispatches_onto_survivors(self, compiled):
        ft = FaultTolerancePolicy(heartbeat_period_ns=10_000.0)
        sim, node, engine = build_engine(compiled, workers=3, ft=ft)

        def killer():
            # crash deterministically while worker 0 is mid-task, so the
            # failure definitely strands work that must be re-dispatched
            from repro.sim import Timeout

            while engine.schedulers[0].current_item is None:
                yield Timeout(1_000.0)
            engine.crash_worker(0, permanent=True)

        spawn(sim, killer())
        graph = graph_for(3, layers=5, width=12)
        report = engine.run_graph(graph)

        assert report.worker_failures == 1
        assert report.tasks_unrecovered == 0
        assert report.availability_ok
        assert report.tasks_retried >= 1
        assert report.mean_detection_ns > 0
        assert report.mean_recovery_ns > 0
        # the dead Worker left the placement pool and never rejoined
        assert 0 in engine.distributor.down_workers
        failure = engine.supervisor.failures[0]
        assert failure.permanent
        assert failure.rejoined_at is None
        # detection latency is bounded by the heartbeat contract
        bound = ft.miss_threshold * ft.heartbeat_period_ns + ft.heartbeat_period_ns
        assert failure.detection_ns <= bound

    def test_transient_crash_heals_and_rejoins(self, compiled):
        ft = FaultTolerancePolicy(heartbeat_period_ns=10_000.0)
        sim, node, engine = build_engine(compiled, workers=2, ft=ft)
        sim.schedule_at(30_000.0, lambda _: engine.crash_worker(1, permanent=False))
        sim.schedule_at(150_000.0, lambda _: engine.recover_worker(1))
        report = engine.run_graph(graph_for(2, layers=6, width=10))

        assert report.worker_failures == 1
        assert report.tasks_unrecovered == 0
        failure = engine.supervisor.failures[0]
        assert not failure.permanent
        assert failure.rejoined_at == 150_000.0
        # back in the placement pool
        assert 1 not in engine.distributor.down_workers
        assert not engine.schedulers[1].crashed

    def test_crash_is_idempotent(self, compiled):
        ft = FaultTolerancePolicy()
        sim, node, engine = build_engine(compiled, workers=2, ft=ft)
        engine.crash_worker(0)
        engine.crash_worker(0)      # second call is a no-op
        assert len(engine.supervisor.failures) == 1
        engine.recover_worker(1)    # recovering a live Worker is a no-op
        assert not engine.schedulers[1].crashed

    def test_permanent_crash_breaks_fabric_for_recovery_manager(self, compiled):
        ft = FaultTolerancePolicy(heartbeat_period_ns=10_000.0)
        sim, node, engine = build_engine(compiled, workers=2, ft=ft)
        sim.schedule_at(50_000.0, lambda _: engine.crash_worker(0, permanent=True))
        report = engine.run_graph(graph_for(2, layers=5, width=10))
        # every region of the dead Worker was reported to the injector
        assert engine.fault_injector is not None
        dead_regions = {
            (w, r) for (w, r) in engine.fault_injector.failed if w == 0
        }
        assert len(dead_regions) == len(node.worker(0).fabric)
        assert report.faults_injected >= len(dead_regions)

    def test_crash_without_fault_tolerance_still_works(self, compiled):
        # engine hooks are safe even with no supervisor armed
        sim, node, engine = build_engine(compiled, workers=2)
        engine.crash_worker(0, permanent=False)
        assert engine.schedulers[0].crashed
        engine.recover_worker(0)
        assert not engine.schedulers[0].crashed


class TestDisabledParity:
    def test_ft_armed_but_quiet_changes_nothing(self, compiled):
        """Arming fault tolerance without faults must not change results."""
        plain_report = None
        armed_report = None
        for ft in (None, FaultTolerancePolicy()):
            sim, node, engine = build_engine(compiled, workers=2, ft=ft)
            report = engine.run_graph(graph_for(2, layers=4, width=8, seed=3))
            if ft is None:
                plain_report = report
            else:
                armed_report = report
        assert armed_report.makespan_ns == plain_report.makespan_ns
        assert armed_report.sw_calls == plain_report.sw_calls
        assert armed_report.hw_calls == plain_report.hw_calls
        assert armed_report.energy_pj == pytest.approx(plain_report.energy_pj)
        assert armed_report.reconfigurations == plain_report.reconfigurations
        # and the availability block stays all-zero on both
        for r in (plain_report, armed_report):
            assert r.faults_injected == 0
            assert r.worker_failures == 0
            assert r.tasks_retried == 0
            assert r.tasks_unrecovered == 0
            assert r.work_lost_ns == 0.0
            assert r.availability_ok


# ----------------------------------------------------------------------
# the chaos controller
# ----------------------------------------------------------------------
class TestChaosController:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChaosConfig(worker_crashes=-1)
        with pytest.raises(ValueError):
            ChaosConfig(transient_fraction=1.5)
        with pytest.raises(ValueError):
            ChaosConfig(window_ns=(500.0, 100.0))

    def test_plan_is_seed_deterministic(self, compiled):
        plans = []
        for _ in range(2):
            sim, node, engine = build_engine(
                compiled, workers=2, ft=FaultTolerancePolicy()
            )
            ctrl = ChaosController(sim, seed=42)
            ctrl.schedule_random(
                engine, node.network.links,
                config=ChaosConfig(window_ns=(10_000.0, 50_000.0)),
            )
            plans.append(ctrl.plan_json())
        assert plans[0] == plans[1]

    def test_different_seed_different_plan(self, compiled):
        plans = []
        for seed in (1, 2):
            sim, node, engine = build_engine(
                compiled, workers=2, ft=FaultTolerancePolicy()
            )
            ctrl = ChaosController(sim, seed=seed)
            ctrl.schedule_random(
                engine, node.network.links,
                config=ChaosConfig(window_ns=(10_000.0, 50_000.0)),
            )
            plans.append(ctrl.plan_json())
        assert plans[0] != plans[1]

    def test_arm_only_once(self, compiled):
        sim, node, engine = build_engine(compiled, workers=2, ft=FaultTolerancePolicy())
        ctrl = ChaosController(sim, seed=0)
        ctrl.crash_worker(engine, 0, at_ns=1_000.0)
        assert ctrl.arm() == 1
        with pytest.raises(RuntimeError):
            ctrl.arm()
        with pytest.raises(RuntimeError):
            ctrl.crash_worker(engine, 1, at_ns=2_000.0)

    def test_degrade_link_with_duration_restores(self):
        sim = Simulator()
        link = Link(sim, LinkParams(), name="test-link")
        ctrl = ChaosController(sim, seed=0)
        ctrl.degrade_link(
            link, at_ns=100.0, latency_multiplier=3.0, duration_ns=400.0
        )
        ctrl.arm()
        sim.run()
        assert link.fault is None           # restored after the window
        assert ctrl.faults_injected == 2    # degrade + restore

    def test_graph_signature_id_independent(self):
        a = graph_for(2, seed=7)
        b = graph_for(2, seed=7)
        c = graph_for(2, seed=8)
        assert a.tasks[0].task_id != b.tasks[0].task_id  # global counter
        assert graph_signature(a) == graph_signature(b)
        assert graph_signature(a) != graph_signature(c)


# ----------------------------------------------------------------------
# end-to-end chaos experiments
# ----------------------------------------------------------------------
class TestChaosExperiment:
    def test_board_acceptance_scenario(self, compiled):
        """DESIGN.md acceptance: kill one Worker mid-graph + degrade one
        link on the board preset; the run completes with every task
        re-placed on survivors and time-to-recover measured."""
        report = run_chaos_experiment("board", seed=1, compiled=compiled)
        assert report.integrity_ok
        assert report.chaos.worker_failures == 1
        assert report.chaos.tasks_retried > 0
        assert report.chaos.tasks_unrecovered == 0
        assert report.chaos.mean_detection_ns > 0
        assert report.chaos.mean_recovery_ns > 0
        assert report.chaos.tasks == report.baseline.tasks
        assert report.slowdown >= 1.0
        # both planned fault classes actually fired
        layers = {f["layer"] for f in report.injected}
        assert layers == {"worker", "link"}

    def test_seeded_determinism_end_to_end(self, compiled):
        """Same chaos seed => identical fault schedule and identical
        recovery metrics (the property the CI smoke job diffs)."""
        a = run_chaos_experiment("mini", seed=11, compiled=compiled)
        b = run_chaos_experiment("mini", seed=11, compiled=compiled)
        assert a.events_json() == b.events_json()
        assert a.plan == b.plan
        assert a.chaos.tasks_retried == b.chaos.tasks_retried
        assert a.chaos.mean_detection_ns == b.chaos.mean_detection_ns
        assert a.chaos.mean_recovery_ns == b.chaos.mean_recovery_ns
        assert a.chaos.work_lost_ns == b.chaos.work_lost_ns

    def test_unknown_preset_rejected(self, compiled):
        with pytest.raises(KeyError):
            run_chaos_experiment("nope", compiled=compiled)

    def test_presets_are_well_formed(self):
        from repro.presets import NODE_PRESETS

        for name, preset in CHAOS_PRESETS.items():
            assert preset.node in NODE_PRESETS, name
            lo, hi = preset.window_fraction
            assert 0 <= lo < hi <= 1, name


# ----------------------------------------------------------------------
# machine-level (cluster) communicator faults
# ----------------------------------------------------------------------
class TestClusterChaos:
    def test_lossy_world_communicator(self, compiled):
        registry, library = compiled
        machine = Machine(
            Simulator(),
            MachineParams(num_nodes=2, node=ComputeNodeParams(num_workers=2)),
        )
        ctrl = ChaosController(machine.sim, seed=0)
        ctrl.lose_messages(machine.world, at_ns=0.0, drop_rate=0.5)
        ctrl.arm()
        machine.sim.run()
        assert machine.world.faults is not None
        r = machine.world.allreduce(4096)
        assert r.latency_ns > 0


# ----------------------------------------------------------------------
# multi-tenant chaos: concurrent jobs + Worker crash mid-stream
# ----------------------------------------------------------------------
class TestMultiJobChaos:
    def _run_two_jobs_with_crash(self, compiled):
        sim, node, engine = build_engine(
            compiled, workers=4,
            ft=FaultTolerancePolicy(heartbeat_period_ns=10_000.0),
        )
        manager = JobManager(engine)
        a = manager.submit_job(graph_for(4, seed=11), policy="greedy-hw", priority=2)
        b = manager.submit_job(graph_for(4, seed=22), policy="energy", priority=1)
        sigs = (graph_signature(a.graph), graph_signature(b.graph))
        # crash a Worker while both job streams are in flight
        sim.schedule_at(40_000.0, lambda _: engine.crash_worker(1, permanent=True))
        report = manager.run()
        return engine, manager, a, b, sigs, report

    def test_per_job_integrity_verdicts(self, compiled):
        engine, manager, a, b, sigs, report = self._run_two_jobs_with_crash(compiled)

        assert len(engine.supervisor.failures) >= 1
        assert report.worker_failures >= 1
        assert engine.supervisor.tasks_retried >= 1   # the crash hit work
        # each tenant gets its own verdict, and both must survive intact
        for handle, sig in zip((a, b), sigs):
            assert handle.report is not None
            assert handle.report.tasks == 50
            assert handle.report.tasks_unrecovered == 0
            assert handle.report.availability_ok
            assert graph_signature(handle.graph) == sig  # workload unaltered
        assert report.availability_ok

    def test_retries_attributed_to_the_right_job(self, compiled):
        engine, manager, a, b, sigs, report = self._run_two_jobs_with_crash(compiled)

        per_job = {h.job_id: h.report.tasks_retried for h in (a, b)}
        # retry accounting is exact: job-tagged counts sum to the
        # machine total, nothing is double-billed or lost
        assert sum(per_job.values()) == engine.supervisor.tasks_retried
        assert report.tasks_retried == engine.supervisor.tasks_retried

    def test_one_jobs_retries_never_consume_the_others_slots(self, compiled):
        engine, manager, a, b, sigs, report = self._run_two_jobs_with_crash(compiled)

        # fair-share isolation: a retried task re-uses the slot it
        # already holds, so even under faults neither tenant's in-flight
        # work can exceed its frozen share -- retries of job A cannot
        # starve job B
        assert a.share is not None and b.share is not None
        assert a.share + b.share <= manager.total_slots
        assert 0 < a.peak_in_flight <= a.share
        assert 0 < b.peak_in_flight <= b.share

    def test_multi_job_experiment_end_to_end(self, compiled):
        report = run_multi_job_chaos_experiment("mini", seed=42, compiled=compiled)
        assert report.faults_injected >= 1
        assert report.integrity_ok
        assert len(report.verdicts) == len(report.chaos.jobs)
        for verdict in report.verdicts:
            assert verdict.workload_match
            assert verdict.tasks_unrecovered == 0
        assert report.slowdown > 0

    def test_multi_job_experiment_deterministic(self, compiled):
        r1 = run_multi_job_chaos_experiment("mini", seed=7, compiled=compiled)
        r2 = run_multi_job_chaos_experiment("mini", seed=7, compiled=compiled)
        assert r1.events_json() == r2.events_json()
        assert r1.chaos.makespan_ns == r2.chaos.makespan_ns
        r3 = run_multi_job_chaos_experiment("mini", seed=8, compiled=compiled)
        assert r3.plan != r1.plan  # seeds actually steer the fault plan
