"""Integration tests: full-stack scenarios crossing package boundaries."""

import numpy as np

from repro.apps import jacobi_reference, jacobi_step, make_layered_dag
from repro.core import (
    ComputeNode,
    ComputeNodeParams,
    FunctionRegistry,
    Machine,
    MachineParams,
    UnilogicDomain,
)
from repro.core.middleware import PartialReconfigDriver
from repro.core.runtime import ExecutionEngine
from repro.fabric import ModuleLibrary
from repro.hls import (
    HlsTool,
    SynthesisConstraints,
    saxpy_kernel,
    stencil_kernel,
)
from repro.memory import AddressRange
from repro.mpi import CartTopology, place_by_blocks, placement_cost
from repro.opencl import (
    CommandQueue,
    Context,
    DataScope,
    DeviceType,
    Platform,
    Program,
)
from repro.pgas import MigrationPolicy
from repro.sim import Simulator, spawn


class TestOpenclStencilPipeline:
    """A real two-sweep Jacobi through buffers, kernels and migration."""

    def test_stencil_results_exact_and_traffic_accounted(self):
        n = 32
        plat = Platform(ComputeNode(Simulator(), ComputeNodeParams(num_workers=4)))
        ctx = Context(plat)
        prog = Program([stencil_kernel(n * n)])

        def sweep(grid_in, grid_out):
            g = grid_in.array.reshape(n, n)
            grid_out.array[:] = jacobi_step(g).ravel()

        prog.set_host_impl("stencil5", sweep)

        grid_a = ctx.create_buffer(8 * n * n, affinity_worker=0, dtype=np.float64)
        grid_b = ctx.create_buffer(8 * n * n, affinity_worker=1, dtype=np.float64)
        init = np.zeros((n, n))
        init[0, :] = 100.0
        grid_a.array[:] = init.ravel()

        q = CommandQueue(ctx, plat.device(0, DeviceType.CPU))
        k = prog.kernel("stencil5")
        q.enqueue_nd_range(k.set_args(grid_a, grid_b), n * n)
        # second sweep runs where grid_b lives after migrating its home
        q.enqueue_migrate(grid_b, 0)
        q.enqueue_nd_range(k.set_args(grid_b, grid_a), n * n)
        q.finish()

        expected = jacobi_reference(n, 2)
        np.testing.assert_allclose(grid_a.array.reshape(n, n), expected)
        assert grid_b.cacheable_owner == 0
        # grid_b lives on worker 1: its pages were accessed remotely
        assert plat.node.unimem.remote_bytes > 0


class TestMachineLevelPlacement:
    """MPI topology placement + intra-node engine on one machine."""

    def test_placed_halo_cheaper_than_scattered(self):
        machine = Machine(
            Simulator(),
            MachineParams(
                num_nodes=4,
                node=ComputeNodeParams(num_workers=4),
                inter_node_fanouts=[4],
            ),
        )
        topo = CartTopology((2, 2))
        placed = place_by_blocks(4, machine.node_endpoints)
        scattered = {0: machine.node_endpoints[0], 1: machine.node_endpoints[2],
                     2: machine.node_endpoints[1], 3: machine.node_endpoints[3]}
        c_placed = placement_cost(topo, placed, machine.inter_network, 1024)
        c_scattered = placement_cost(topo, scattered, machine.inter_network, 1024)
        assert c_placed <= c_scattered

    def test_world_collectives_and_node_engines_compose(self):
        machine = Machine(
            Simulator(),
            MachineParams(num_nodes=2, node=ComputeNodeParams(num_workers=2)),
        )
        # inter-node phase
        r = machine.world.allreduce(4096)
        assert r.latency_ns > 0
        # intra-node phase on node 0 shares the same simulator
        registry = FunctionRegistry()
        registry.register(saxpy_kernel(1024))
        engine = ExecutionEngine(
            machine.node(0), registry, use_daemon=False, allow_hardware=False
        )
        graph = make_layered_dag(3, 4, 2, functions=("saxpy",), seed=2)
        report = engine.run_graph(graph)
        assert report.tasks == 12
        assert machine.total_energy_pj() > 0


class TestMiddlewareLifecycle:
    """HLS -> load -> preempt -> resume -> invoke, end to end."""

    def test_preemption_roundtrip_preserves_service(self):
        sim = Simulator()
        node = ComputeNode(sim, ComputeNodeParams(num_workers=2))
        unilogic = UnilogicDomain(node)
        library = ModuleLibrary()
        tool = HlsTool()
        tool.compile(saxpy_kernel(1024), library, SynthesisConstraints(max_variants=1))
        tool.compile(stencil_kernel(1024), library, SynthesisConstraints(max_variants=1))
        saxpy = library.best_variant("saxpy")
        worker = node.worker(0)
        capacity = worker.fabric.regions[0].capacity
        stencil = library.best_variant("stencil5", capacity=capacity)
        driver = PartialReconfigDriver(worker)
        log = {}

        def flow():
            region = yield from driver.ensure_loaded(saxpy)
            yield from unilogic.invoke("saxpy", 1, 512)
            # urgent stencil work preempts saxpy's region
            yield from driver.preempt(region)
            yield from driver.ensure_loaded(stencil)
            yield from unilogic.invoke("stencil5", 0, 512)
            # resume saxpy (second region is free)
            resumed = yield from driver.resume(saxpy.name)
            log["resumed"] = resumed
            yield from unilogic.invoke("saxpy", 1, 512)

        spawn(sim, flow())
        sim.run()
        assert log["resumed"] is not None
        functions = {inv.function for inv in unilogic.invocations}
        assert functions == {"saxpy", "stencil5"}
        assert driver.preemptions == 1


class TestMigrationClosesTheLoop:
    """UNIMEM access records feed the policy; migration changes costs."""

    def test_hot_page_migration_reduces_remote_traffic(self):
        sim = Simulator()
        node = ComputeNode(sim, ComputeNodeParams(num_workers=4))
        policy = MigrationPolicy(node.unimem, min_accesses=8)
        addr = node.unimem.map.global_address(0, 0)
        rng = AddressRange(addr, 64)

        def hammer(times):
            for _ in range(times):
                yield from node.remote_access(3, rng, is_write=False)
                policy.record(3, addr, 64, False)

        spawn(sim, hammer(10))
        sim.run()
        before = node.unimem.remote_accesses
        migrated, _ = policy.step()
        assert migrated == 1
        # after migration, worker 3 may cache the page
        plan = node.unimem.plan_access(3, rng, False)
        assert plan.chunks[0][2] is True
