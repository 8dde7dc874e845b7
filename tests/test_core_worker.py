"""Unit tests for the Worker node and FunctionRegistry."""

import pytest

from repro.core import FunctionRegistry, Worker, WorkerParams
from repro.fabric import ModuleLibrary
from repro.hls import HlsTool, SynthesisConstraints, saxpy_kernel, vecadd_kernel
from repro.sim import Interrupt, Simulator, spawn


@pytest.fixture(scope="module")
def saxpy_module():
    lib = ModuleLibrary()
    HlsTool().compile(saxpy_kernel(1024), lib, SynthesisConstraints(max_variants=1))
    return lib.best_variant("saxpy")


def run(sim, gen):
    out = {}

    def proc():
        out["value"] = yield from gen

    spawn(sim, proc())
    sim.run()
    return out.get("value")


class TestFunctionRegistry:
    def test_register_and_lookup(self):
        reg = FunctionRegistry()
        reg.register(vecadd_kernel())
        assert "vecadd" in reg
        assert reg.kernel("vecadd").name == "vecadd"
        assert reg.functions() == ["vecadd"]

    def test_duplicate_rejected(self):
        reg = FunctionRegistry()
        reg.register(vecadd_kernel())
        with pytest.raises(ValueError):
            reg.register(vecadd_kernel())

    def test_missing_rejected(self):
        with pytest.raises(KeyError):
            FunctionRegistry().kernel("nope")


class TestWorkerParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerParams(cpu_cores=0)
        with pytest.raises(ValueError):
            WorkerParams(fabric_regions=0)


class TestSoftwarePath:
    def test_run_software_advances_time_and_energy(self):
        sim = Simulator()
        w = Worker(sim, 0)
        k = saxpy_kernel(1024)
        energy = run(sim, w.run_software(k, 1000))
        assert sim.now == pytest.approx(w.software_latency_ns(k, 1000))
        assert w.sw_calls == 1
        # the call is priced once and returns exactly what it charged
        assert energy == w.params.software.energy_pj(k, 1000) > 0
        assert w.ledger.categories() == {f"{w.name}.cpu": energy}

    def test_interrupted_call_neither_counts_nor_charges(self):
        sim = Simulator()
        w = Worker(sim, 0, WorkerParams(cpu_cores=1))
        k = saxpy_kernel(1024)
        single = w.software_latency_ns(k, 1000)
        log = []

        def proc(role):
            try:
                yield from w.run_software(k, 1000)
                log.append(role)
            except Interrupt:
                log.append(f"{role} interrupted")

        spawn(sim, proc("first"))
        queued = spawn(sim, proc("queued"))
        holding = spawn(sim, proc("holding"))
        sim.schedule(0.5 * single, queued.interrupt)
        sim.schedule(1.5 * single, holding.interrupt)
        sim.run()
        assert log == ["queued interrupted", "first", "holding interrupted"]
        assert (w.cpu.in_use, w.cpu.queue_length) == (0, 0)
        assert w.sw_calls == 1
        assert w.ledger.categories() == {
            f"{w.name}.cpu": w.params.software.energy_pj(k, 1000)
        }

    def test_cores_limit_concurrency(self):
        sim = Simulator()
        w = Worker(sim, 0, WorkerParams(cpu_cores=1))
        k = saxpy_kernel(1024)
        done = []

        def proc():
            yield from w.run_software(k, 1000)
            done.append(sim.now)

        spawn(sim, proc())
        spawn(sim, proc())
        sim.run()
        single = w.software_latency_ns(k, 1000)
        assert max(done) == pytest.approx(2 * single)

    def test_multicore_parallel(self):
        sim = Simulator()
        w = Worker(sim, 0, WorkerParams(cpu_cores=2))
        k = saxpy_kernel(1024)
        done = []

        def proc():
            yield from w.run_software(k, 1000)
            done.append(sim.now)

        spawn(sim, proc())
        spawn(sim, proc())
        sim.run()
        assert max(done) == pytest.approx(w.software_latency_ns(k, 1000))


class TestHardwarePath:
    def test_load_then_run(self, saxpy_module):
        sim = Simulator()
        w = Worker(sim, 0)
        region = run(sim, w.load_module(saxpy_module))
        assert region is not None
        assert w.hosted_region("saxpy") is region
        latency = run(sim, w.run_hardware("saxpy", 512))
        assert latency == pytest.approx(saxpy_module.latency_ns(512))
        assert w.hw_calls == 1
        assert w.ledger.total_pj(f"{w.name}.fabric") > 0
        assert w.ledger.total_pj(f"{w.name}.config") > 0

    def test_run_unloaded_raises(self):
        sim = Simulator()
        w = Worker(sim, 0)

        def proc():
            yield from w.run_hardware("saxpy", 10)

        spawn(sim, proc())
        with pytest.raises(LookupError):
            sim.run()

    def test_accelerator_front_end_cached_per_region(self, saxpy_module):
        sim = Simulator()
        w = Worker(sim, 0)
        region = run(sim, w.load_module(saxpy_module))
        a1 = w.accelerator_for_region(region)
        a2 = w.accelerator_for_region(region)
        assert a1 is a2

    def test_accelerator_for_empty_region_rejected(self):
        sim = Simulator()
        w = Worker(sim, 0)
        with pytest.raises(ValueError):
            w.accelerator_for_region(w.fabric.regions[0])

    def test_reload_resets_front_end(self, saxpy_module):
        sim = Simulator()
        w = Worker(sim, 0, WorkerParams(fabric_regions=1))
        region = run(sim, w.load_module(saxpy_module))
        a1 = w.accelerator_for_region(region)
        run(sim, w.load_module(saxpy_module, region))
        a2 = w.accelerator_for_region(region)
        assert a1 is not a2


class TestLocalStream:
    def test_stream_charges_dram_energy(self):
        sim = Simulator()
        w = Worker(sim, 0)
        latency = run(sim, w.local_stream(0, 4096))
        assert latency > 0
        assert w.ledger.total_pj(f"{w.name}.dram") > 0

    def test_reuse_reduces_dram_traffic(self):
        sim1, sim2 = Simulator(), Simulator()
        w1, w2 = Worker(sim1, 0), Worker(sim2, 0)
        run(sim1, w1.local_stream(0, 1 << 16, reuse=0.0))
        run(sim2, w2.local_stream(0, 1 << 16, reuse=0.9))
        assert w2.dram.bytes_transferred < w1.dram.bytes_transferred

    def test_reuse_validation(self):
        sim = Simulator()
        w = Worker(sim, 0)

        def proc():
            yield from w.local_stream(0, 100, reuse=1.5)

        spawn(sim, proc())
        with pytest.raises(ValueError):
            sim.run()
