"""Tests for engine-integrated tracing and the VM-sharing scenario."""

import pytest

from repro.apps import make_layered_dag
from repro.core import ComputeNode, ComputeNodeParams, FunctionRegistry, Worker
from repro.core.middleware import CallPath, HardwareCallLibrary
from repro.core.runtime import ExecutionEngine
from repro.fabric import ModuleLibrary
from repro.hls import HlsTool, SynthesisConstraints, saxpy_kernel
from repro.sim import Simulator, render_timeline, spawn
from repro.telemetry import Telemetry


class TestEngineTracing:
    def run_traced(self):
        sim = Simulator()
        node = ComputeNode(sim, ComputeNodeParams(num_workers=2))
        registry = FunctionRegistry()
        registry.register(saxpy_kernel(1024))
        hub = Telemetry(sim)
        engine = ExecutionEngine(
            node, registry, use_daemon=False, allow_hardware=False, telemetry=hub
        )
        graph = make_layered_dag(3, 6, 2, functions=("saxpy",), seed=2)
        report = engine.run_graph(graph)
        return hub.tracer, report

    def test_every_task_has_a_span(self):
        tracer, report = self.run_traced()
        spans = tracer.closed_spans()
        assert len(spans) == report.tasks
        assert all(s.duration > 0 for s in spans)

    def test_lanes_are_workers(self):
        tracer, _ = self.run_traced()
        assert set(tracer.lanes()) <= {"node0.w0", "node0.w1"}

    def test_timeline_renders(self):
        tracer, _ = self.run_traced()
        text = render_timeline(tracer)
        assert "node0.w0" in text
        assert "#" in text

    def test_utilization_positive(self):
        tracer, report = self.run_traced()
        total_busy = sum(tracer.busy_time(l) for l in tracer.lanes())
        assert total_busy > 0
        assert total_busy >= report.makespan_ns  # 2 workers overlap


class TestMultiVmSharing:
    """Two 'virtual machines' (separate SMMU contexts) share one loaded
    accelerator through the virtualization block -- the Fig. 4 story of
    'multiple function calls (from different virtual machines) in a
    fully pipelined fashion'."""

    def test_two_vms_isolated_translations_shared_pipeline(self):
        lib = ModuleLibrary()
        HlsTool().compile(saxpy_kernel(1024), lib, SynthesisConstraints(max_variants=1))
        module = lib.best_variant("saxpy")
        sim = Simulator()
        worker = Worker(sim, 0)
        call_lib = HardwareCallLibrary(worker)
        vm1 = call_lib.bind_user_context(16 * 4096)
        vm2 = call_lib.bind_user_context(16 * 4096)
        assert vm1 != vm2
        done = {}

        def vm_job(tag, ctx):
            t = yield from call_lib.call("saxpy", 512, 16 * 4096,
                                         CallPath.USER_LEVEL, ctx)
            done[tag] = (t, sim.now)

        def setup():
            yield from worker.load_module(module)
            spawn(sim, vm_job("vm1", vm1))
            spawn(sim, vm_job("vm2", vm2))

        spawn(sim, setup())
        sim.run()
        assert set(done) == {"vm1", "vm2"}
        # pipelined sharing: combined wall time well below 2x a solo call
        solo = module.latency_ns(512)
        finish = max(end for _, end in done.values())
        assert finish < 2.0 * (solo + 10_000)
        # isolation: each VM's pages were translated in its own context
        assert worker.smmu.stats.translations >= 32
        assert worker.smmu.tlb_occupancy >= 32  # both VMs' entries cached
