"""The per-task path's caches and running totals equal what they replace.

- A network's energy tally equals the fold over its links, bit for bit
  (``==``, not ``approx``), after real runs on every node preset and
  after ``reset_traffic``: every increment is a whole number of
  picojoules, so any summation order gives the same float.
- The software cost model's per-kernel invariants, cached on the kernel,
  price every suite kernel exactly as a fresh recomputation does, and a
  priced kernel is still freed by reference counting.
- ``ExecutionRecord`` validates on every construction path and is
  immutable (its History-file bytes are pinned in
  ``test_runtime_history_models.py``).
- One tracker call over the pool leaves the same beliefs and message
  count as one query per Worker.
"""

import dataclasses
import gc
import weakref

import pytest

from repro.chaos import CHAOS_PRESETS, run_chaos_experiment
from repro.core.runtime import ExecutionHistory, ExecutionRecord
from repro.core.runtime.lazy import LazyStatusTracker, LocalWorkQueue
from repro.experiments import run_jobs_experiment
from repro.hls import SoftwareCostModel, saxpy_kernel
from repro.hls import software
from repro.interconnect.network import Network
from repro.presets import JOB_PRESETS, NODE_PRESETS, SERVING_PRESETS, compiled_suite
from repro.serving import run_serving_experiment
from repro.sim import Simulator

_RUNS = {
    "jobs": (JOB_PRESETS, "mini", run_jobs_experiment),
    "serving": (SERVING_PRESETS, "steady", run_serving_experiment),
    "chaos": (CHAOS_PRESETS, "mini", run_chaos_experiment),
}


def _fold(network):
    return sum(link.energy_pj for link in network.links)


@pytest.mark.parametrize("kind", sorted(_RUNS))
@pytest.mark.parametrize("node", sorted(NODE_PRESETS))
def test_noc_tally_equals_link_fold(kind, node, monkeypatch):
    registry, base, run = _RUNS[kind]
    monkeypatch.setitem(registry, "tally-guard", dataclasses.replace(registry[base], node=node))
    networks = []
    init = Network.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        networks.append(self)

    monkeypatch.setattr(Network, "__init__", recording_init)
    run("tally-guard")
    assert networks
    if (kind, node) != ("chaos", "chassis"):  # that run moves no data on the NoC
        assert sum(net.total_energy_pj() for net in networks) > 0
    for net in networks:
        assert net.total_energy_pj() == _fold(net)
        assert net.total_energy_pj() == float(int(net.total_energy_pj()))
        net.reset_traffic()
        assert net.total_energy_pj() == _fold(net) == 0.0


def _fresh_cycles(kernel, model):
    """The cost model's formula, recomputed from the kernel's fields."""
    op_cycles = sum(
        count * software._CPU_OP_CYCLES[kind] for kind, count in kernel.ops.items()
    )
    mem_cycles = sum(a.accesses_per_iter for a in kernel.arrays) * software._CPU_MEM_CYCLES
    return (op_cycles + mem_cycles) / model.issue_width


@pytest.mark.parametrize(
    "model",
    [SoftwareCostModel(), SoftwareCostModel(clock_ghz=1.7, issue_width=3.0)],
    ids=["default", "narrow"],
)
def test_cost_model_matches_fresh_recomputation(model):
    registry, _ = compiled_suite(max_variants=1)
    for function in registry.functions():
        kernel = registry.kernel(function)
        for items in (1, 7, 512, 8192):
            for _ in range(2):  # the second call reads the kernel's cache
                cycles = _fresh_cycles(kernel, model)
                latency = cycles * items / model.clock_ghz
                ops = sum(kernel.ops.values()) * items
                energy = ops * model.energy_per_op_pj + model.static_power_mw * latency
                assert model.cycles_per_iteration(kernel) == cycles
                assert model.latency_ns(kernel, items) == latency
                assert model.energy_pj(kernel, items) == energy
        assert kernel.bytes_per_iteration() == sum(
            a.accesses_per_iter * a.elem_bytes for a in kernel.arrays
        )


def test_priced_kernel_is_freed_by_reference_counting():
    """The cost model, shared by every Worker, keeps nothing per kernel."""
    model = SoftwareCostModel()
    gc.collect()
    gc.disable()
    try:
        kernel = saxpy_kernel()
        model.latency_ns(kernel, 64)
        model.energy_pj(kernel, 64)
        kernel.bytes_per_iteration()
        ref = weakref.ref(kernel)
        del kernel
        assert ref() is None
    finally:
        gc.enable()


_GOOD = dict(function="f", device="sw", worker=0, items=1,
             latency_ns=0.0, energy_pj=0.0, timestamp=0.0)


@pytest.mark.parametrize(
    "field, value",
    [("device", "gpu"), ("items", 0), ("latency_ns", -1.0), ("energy_pj", -0.5)],
)
def test_record_rejects_bad_fields_on_every_path(field, value):
    good = ExecutionRecord(**_GOOD)
    bad = dict(_GOOD, **{field: value})
    with pytest.raises(ValueError):
        ExecutionRecord(**bad)
    with pytest.raises(ValueError):
        ExecutionRecord(*bad.values())
    with pytest.raises(ValueError):
        good._replace(**{field: value})
    with pytest.raises(ValueError):
        ExecutionHistory().record(**bad)


def test_record_is_immutable_and_keeps_its_fields():
    rec = ExecutionRecord("f", "hw", 3, 9, 1.5, 2.5, 4.0, 7)
    assert rec == ExecutionRecord(
        function="f", device="hw", worker=3, items=9,
        latency_ns=1.5, energy_pj=2.5, timestamp=4.0, job=7,
    )
    assert rec._asdict() == {
        "function": "f", "device": "hw", "worker": 3, "items": 9,
        "latency_ns": 1.5, "energy_pj": 2.5, "timestamp": 4.0, "job": 7,
    }
    assert ExecutionRecord(**_GOOD).job == 0
    with pytest.raises(AttributeError):
        rec.items = 10
    with pytest.raises(AttributeError):
        rec.extra = 1


def _reference_load(tracker, observer, target):
    """One query resolved the way the tracker did before it scored whole
    pools: its own queue is free, eager mode always polls, lazy mode
    polls when the cached snapshot has expired."""
    queue = tracker.queues[target]
    if target == observer:
        return queue.outstanding
    if not tracker.lazy:
        tracker.status_messages += 1
        return queue.outstanding
    now = tracker.sim.now
    cached_at = tracker._cached_at.get(target)
    if cached_at is None or now - cached_at >= tracker.refresh_interval_ns:
        tracker.status_messages += 1
        tracker._cache[target] = queue.outstanding
        tracker._cached_at[target] = now
    return tracker._cache[target]


@pytest.mark.parametrize("lazy", [True, False])
def test_pool_query_matches_per_worker_queries(lazy):
    def world():
        sim = Simulator()
        queues = [LocalWorkQueue(sim, w) for w in range(5)]
        return sim, queues, LazyStatusTracker(sim, queues, 1_000.0, lazy=lazy)

    pool_sim, pool_queues, pool = world()
    ref_sim, ref_queues, ref = world()
    steps = [(0.0, 1, [0, 1, 2, 3, 4]), (500.0, 0, [4, 2, 2]),
             (999.0, 4, [1, 3]), (1_200.0, 3, [3, 1, 0]),
             (1_200.0, 2, [0, 1, 2, 3, 4])]
    for t, observer, targets in steps:
        for sim, queues in ((pool_sim, pool_queues), (ref_sim, ref_queues)):
            sim.warp_to(t)
            for w, q in enumerate(queues):
                q.enqueued = int(t) // 100 + w
        got = pool.estimated_loads(observer, targets)
        want = [_reference_load(ref, observer, w) for w in targets]
        assert got == want
        assert pool.status_messages == ref.status_messages
        assert pool._cache == ref._cache and pool._cached_at == ref._cached_at
        assert pool.estimated_load(observer, targets[0]) == _reference_load(
            ref, observer, targets[0]
        )
