"""Cross-cutting property-based tests on core invariants."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.fabric import Bitstream, ResourceVector
from repro.hls import (
    HlsConfig,
    HlsEstimator,
    OpKind,
    SoftwareCostModel,
    saxpy_kernel,
    vecadd_kernel,
)
from repro.hls.ir import ArrayArg, Kernel
from repro.interconnect import Message, TransactionType, build_tree
from repro.mpi import CartTopology, Communicator
from repro.sim import Simulator, Timeout, spawn


# ---------------------------------------------------------------------------
# simulation kernel
# ---------------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
@settings(max_examples=50)
def test_sim_clock_monotone_under_any_schedule(delays):
    sim = Simulator()
    observed = []
    for d in delays:
        sim.schedule(d, lambda _: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert sim.now == max(delays)


@given(st.lists(st.floats(min_value=0.1, max_value=1000.0), min_size=1, max_size=20))
@settings(max_examples=50)
def test_sequential_process_time_is_sum(delays):
    sim = Simulator()

    def proc():
        for d in delays:
            yield Timeout(d)

    spawn(sim, proc())
    sim.run()
    assert sim.now == pytest.approx(math.fsum(delays))


# ---------------------------------------------------------------------------
# interconnect
# ---------------------------------------------------------------------------
@given(
    fanouts=st.lists(st.integers(2, 4), min_size=1, max_size=3),
    seed=st.integers(0, 100),
)
@settings(max_examples=30, deadline=None)
def test_tree_routing_symmetric_and_triangle(fanouts, seed):
    sim = Simulator()
    net, workers = build_tree(sim, fanouts)
    import random

    rng = random.Random(seed)
    a, b, c = (rng.choice(workers) for _ in range(3))
    dab = net.hop_distance(a, b)
    assert dab == net.hop_distance(b, a)                     # symmetry
    assert dab <= net.hop_distance(a, c) + net.hop_distance(c, b)  # triangle
    assert net.hop_distance(a, a) == 0
    if a != b:
        assert dab >= 2  # leaves always route via a switch


@given(size=st.integers(0, 1 << 20))
@settings(max_examples=50)
def test_route_latency_nonnegative_and_monotone_in_size(size):
    sim = Simulator()
    net, workers = build_tree(sim, [2, 2])
    r = net.route(workers[0], workers[3])
    assert r.latency(size) >= 0
    assert r.latency(size + 64) > r.latency(size)
    assert r.energy(size) >= 0


# ---------------------------------------------------------------------------
# MPI collectives
# ---------------------------------------------------------------------------
@given(p=st.integers(1, 16), size=st.integers(0, 1 << 16))
@settings(max_examples=30, deadline=None)
def test_collective_costs_nonnegative_and_rounds_bounded(p, size):
    sim = Simulator()
    net, workers = build_tree(sim, [p]) if p > 1 else build_tree(sim, [1])
    comm = Communicator(net, workers[:p])
    for op in (comm.broadcast(0, size), comm.allreduce(size), comm.alltoall(size)):
        assert op.latency_ns >= 0
        assert op.energy_pj >= 0
    bcast = comm.broadcast(0, size)
    assert bcast.rounds <= max(1, math.ceil(math.log2(max(p, 2))))
    assert bcast.bytes_moved == (p - 1) * size


@given(
    dims=st.tuples(st.integers(1, 5), st.integers(1, 5)),
)
@settings(max_examples=50)
def test_cart_neighbour_relation_symmetric(dims):
    topo = CartTopology(dims)
    for rank in range(topo.size):
        for nb in topo.neighbours(rank):
            assert rank in topo.neighbours(nb)


# ---------------------------------------------------------------------------
# HLS estimator
# ---------------------------------------------------------------------------
op_kinds = st.sampled_from(list(OpKind))


@st.composite
def kernels(draw):
    n_ops = draw(st.integers(1, 4))
    ops = {}
    for _ in range(n_ops):
        ops[draw(op_kinds)] = draw(st.integers(1, 4))
    arrays = tuple(
        ArrayArg(f"a{i}", 4, reads_per_iter=draw(st.integers(0, 2)),
                 writes_per_iter=draw(st.integers(0, 1)),
                 footprint_elems=draw(st.integers(16, 4096)))
        for i in range(draw(st.integers(1, 3)))
    )
    rec = None
    if draw(st.booleans()):
        rec = (draw(st.integers(1, 4)), draw(st.integers(1, 8)))
    return Kernel(
        name="k",
        trip_counts=(draw(st.integers(4, 1024)),),
        ops=ops,
        arrays=arrays,
        recurrence=rec,
    )


@given(kernel=kernels(), unroll=st.sampled_from([1, 2, 4]), dup=st.sampled_from([1, 2]))
@settings(max_examples=50, deadline=None)
def test_estimator_invariants(kernel, unroll, dup):
    est = HlsEstimator()
    if unroll > kernel.inner_trip:
        return
    cfg = HlsConfig(pipeline=True, unroll=unroll, duplicate=dup)
    e = est.estimate(kernel, cfg)
    assert e.initiation_interval >= 1
    assert e.pipeline_depth >= 1
    assert e.clock_ns > 0
    assert e.resources.luts >= 0
    # recurrence lower bound respected
    if kernel.recurrence:
        distance, latency = kernel.recurrence
        assert e.initiation_interval >= math.ceil(latency / distance)
    # more datapath never shrinks resources
    wider = est.estimate(kernel, HlsConfig(pipeline=True, unroll=unroll, duplicate=dup * 2))
    assert wider.resources.area_units() > e.resources.area_units()
    # latency is monotone in items
    assert e.latency_ns(100) <= e.latency_ns(200)


@given(kernel=kernels(), items=st.integers(1, 100_000))
@settings(max_examples=50, deadline=None)
def test_software_cost_scales_linearly(kernel, items):
    sw = SoftwareCostModel()
    single = sw.latency_ns(kernel, 1)
    assert sw.latency_ns(kernel, items) == pytest.approx(single * items, rel=1e-9)


# ---------------------------------------------------------------------------
# bitstreams
# ---------------------------------------------------------------------------
@given(frames=st.integers(0, 60), fill=st.floats(0.0, 1.0), seed=st.integers(0, 50))
@settings(max_examples=50, deadline=None)
def test_bitstream_compress_roundtrip_any_density(frames, fill, seed):
    bs = Bitstream.synthesize("m", frames, fill, seed)
    comp = bs.compress()
    assert comp.decompress().data == bs.data
    if frames:
        assert comp.compression_ratio > 0


# ---------------------------------------------------------------------------
# resource vectors
# ---------------------------------------------------------------------------
vectors = st.builds(
    ResourceVector,
    luts=st.integers(0, 10_000),
    ffs=st.integers(0, 10_000),
    brams=st.integers(0, 100),
    dsps=st.integers(0, 100),
)


@given(a=vectors, b=vectors, c=vectors)
def test_fits_in_is_transitive(a, b, c):
    if a.fits_in(b) and b.fits_in(c):
        assert a.fits_in(c)


@given(a=vectors, b=vectors)
def test_area_subadditive_exactly(a, b):
    assert (a + b).area_units() == pytest.approx(a.area_units() + b.area_units())
