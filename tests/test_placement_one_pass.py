"""Differential test of the one-pass placement loop.

``SchedulingPolicy.choose_worker`` scores every alive Worker in a single
loop over the node's hop row.  This test drives it through seeded random
placement sequences next to a reference written the old way -- a
per-Worker score function under ``min(alive, key=(score, w))`` -- on a
twin distributor.  After every placement both sides must have picked the
same Worker and left the lazy tracker in the same state: the same
``status_messages`` count and the same cached beliefs and timestamps,
since the tracker is queried once per candidate, in pool order.
"""

from functools import lru_cache

from hypothesis import given, seed, settings, strategies as st

from repro.apps import Task
from repro.core import ComputeNode, ComputeNodeParams
from repro.core.runtime import (
    LazyStatusTracker,
    LocalWorkQueue,
    PolicyConfig,
    WorkDistributor,
)
from repro.core.runtime.policy import EnergyAwarePolicy, GreedyHardwarePolicy
from repro.sim import Simulator


def old_score(policy, distributor, task, worker, observer):
    """The placement score as a standalone per-Worker function."""
    data_bytes = task.input_bytes + task.output_bytes
    hops = distributor.node.hop_distance(task.data_worker, worker)
    transfer = hops * data_bytes * policy.config.transfer_penalty_ns_per_byte_hop
    if policy.config.data_affinity_only:
        return transfer
    load = distributor.tracker.estimated_load(observer, worker)
    return transfer + load * policy.config.load_penalty_ns


def reference_choice(policy, distributor, task, observer):
    if isinstance(policy, EnergyAwarePolicy):
        unilogic = distributor.unilogic
        if unilogic is not None:
            found = unilogic.nearest_region(task.function, task.data_worker)
            if found is not None and found[0] in distributor.alive_workers():
                return found[0]
    alive = distributor.alive_workers()
    return min(
        alive, key=lambda w: (old_score(policy, distributor, task, w, observer), w)
    )


class _FixedHost:
    """A UNILOGIC stand-in whose hosting-region lookup always answers
    ``host`` (``None``: nothing hosts the function)."""

    def __init__(self, host):
        self.host = host

    def nearest_region(self, function, data_worker):
        return None if self.host is None else (self.host, None)


@lru_cache(maxsize=None)
def _node(workers, fanout):
    # placement only reads the node's hop table, so one node per shape
    # serves every example
    params = ComputeNodeParams(num_workers=workers, intra_fanout=fanout)
    return ComputeNode(Simulator(), params)


def _world(workers, fanout, lazy, refresh_ns, config, down, unilogic):
    sim = Simulator()
    queues = [LocalWorkQueue(sim, w) for w in range(workers)]
    tracker = LazyStatusTracker(sim, queues, refresh_ns, lazy=lazy)
    dist = WorkDistributor(_node(workers, fanout), queues, tracker, config)
    dist.unilogic = unilogic
    for w in down:
        dist.mark_down(w)
    return sim, dist


def _tracker_state(tracker):
    return tracker.status_messages, dict(tracker._cache), dict(tracker._cached_at)


placement_steps = st.lists(
    st.tuples(
        st.sampled_from((0.0, 0.0, 3_000.0, 10_000.0, 25_000.0)),  # clock advance
        st.integers(0, 7),                                       # data_worker
        st.integers(0, 7),                                       # observer
        st.sampled_from((0, 64, 4096, 1 << 20)),                 # input bytes
        st.sampled_from((0, 64, 4096)),                          # output bytes
        st.lists(st.integers(0, 6), min_size=8, max_size=8),     # outstanding
    ),
    min_size=1,
    max_size=12,
)


@seed(11)
@settings(max_examples=250, deadline=None)
@given(
    shape=st.sampled_from(((1, None), (2, None), (4, None), (5, 2), (6, 2), (8, 3))),
    down_mask=st.integers(0, 255),
    lazy=st.booleans(),
    refresh_ns=st.sampled_from((1.0, 5_000.0, 10_000.0, 1e9)),
    transfer_penalty=st.sampled_from((0.0, 1e-3, 0.1, 1.0)),
    load_penalty=st.sampled_from((0.0, 1.0, 20_000.0, 1e9)),
    affinity_only=st.booleans(),
    policy_kind=st.sampled_from(("greedy", "energy", "energy-nohost", "energy-down")),
    steps=placement_steps,
)
def test_one_pass_placement_matches_min_reference(
    shape, down_mask, lazy, refresh_ns, transfer_penalty, load_penalty,
    affinity_only, policy_kind, steps,
):
    workers, fanout = shape
    down = [w for w in range(workers) if down_mask >> w & 1]
    config = PolicyConfig(
        transfer_penalty_ns_per_byte_hop=transfer_penalty,
        load_penalty_ns=load_penalty,
        data_affinity_only=affinity_only,
    )
    if policy_kind == "greedy":
        policy, unilogic = GreedyHardwarePolicy(config), None
    else:
        # EnergyAwarePolicy falls through to the base loop when no UNILOGIC
        # domain is wired, nothing hosts the function, or its host is down
        policy = EnergyAwarePolicy(config)
        unilogic = {
            "energy": None,
            "energy-nohost": _FixedHost(None),
            "energy-down": _FixedHost(down[0] if down else workers - 1),
        }[policy_kind]
    sim_new, new = _world(workers, fanout, lazy, refresh_ns, config, down, unilogic)
    sim_ref, ref = _world(workers, fanout, lazy, refresh_ns, config, down, unilogic)
    for advance, data_worker, observer, in_bytes, out_bytes, depths in steps:
        for sim in (sim_new, sim_ref):
            sim.warp_to(sim.now + advance)
        for dist in (new, ref):
            for w, depth in enumerate(depths[:workers]):
                dist.queues[w].enqueued = depth
        task = Task(
            "f", 1,
            data_worker=data_worker % workers,
            affinity_worker=data_worker % workers,
            input_bytes=in_bytes,
            output_bytes=out_bytes,
        )
        got = policy.choose_worker(new, task, observer % workers)
        want = reference_choice(policy, ref, task, observer % workers)
        assert got == want
        assert _tracker_state(new.tracker) == _tracker_state(ref.tracker)
