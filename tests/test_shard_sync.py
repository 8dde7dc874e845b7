"""Unit contracts of the sharded engine's sync/bridge/merge layers.

The deterministic tie-break is the heart of the byte-identity claim:
simultaneous cross-partition deliveries land in ``(deliver_ns, src_node,
seq)`` order no matter how nodes are grouped into partitions, zero
lookahead is rejected up front (a zero-latency inter-node link admits no
conservative window), and telemetry streams merge under the canonical
``(time_ns, node_id, seq)`` key.
"""

import math

import pytest

from repro.shard import (
    NodeCell,
    PartitionPlan,
    PartitionRuntime,
    ShardError,
    default_lookahead_ns,
    run_conservative,
    sort_messages,
)
from repro.shard.bridge import BridgeMessage, NodeBridge
from repro.sim import Simulator
from repro.telemetry.merge import merge_streams


# ----------------------------------------------------------------------
# partition plan
# ----------------------------------------------------------------------
def test_plan_partitions_nodes_contiguously():
    plan = PartitionPlan.build(8, 4)
    assert [list(plan.nodes_in(p)) for p in range(4)] == [
        [0, 1], [2, 3], [4, 5], [6, 7]
    ]
    for node in range(8):
        assert node in plan.nodes_in(plan.partition_of(node))


def test_plan_rejects_zero_lookahead():
    with pytest.raises(ShardError):
        PartitionPlan.build(2, 2, lookahead_ns=0.0)


def test_default_lookahead_is_inter_node_link_latency():
    assert default_lookahead_ns() > 0.0


def test_plan_rejects_more_partitions_than_nodes():
    with pytest.raises(ShardError):
        PartitionPlan.build(2, 4)


# ----------------------------------------------------------------------
# bridge ordering
# ----------------------------------------------------------------------
def test_bridge_rejects_sub_lookahead_latency():
    sim = Simulator()
    bridge = NodeBridge(0, sim, lookahead_ns=40.0)
    with pytest.raises(ShardError):
        bridge.send(1, "x", {}, latency_ns=39.0)


def test_sort_messages_breaks_ties_by_src_then_seq():
    msgs = [
        BridgeMessage(40.0, 2, 0, 9, "x", None),
        BridgeMessage(40.0, 1, 1, 9, "x", None),
        BridgeMessage(40.0, 1, 0, 9, "x", None),
        BridgeMessage(39.0, 3, 0, 9, "x", None),
    ]
    ordered = sort_messages(msgs)
    assert [(m.deliver_ns, m.src_node, m.seq) for m in ordered] == [
        (39.0, 3, 0), (40.0, 1, 0), (40.0, 1, 1), (40.0, 2, 0)
    ]


# ----------------------------------------------------------------------
# simultaneous cross-partition deliveries
# ----------------------------------------------------------------------
def _echo_cells(plan):
    """Two nodes; node 0 sends two messages and node 1 one self-message,
    all delivered at exactly t = lookahead on node 1."""
    arrivals = []
    cells = {}
    for node_id in (0, 1):
        sim = Simulator()
        cell = NodeCell(node_id, sim)
        gate = cell.gate(0.0)

        def send(_, cell=cell, gate=gate, node_id=node_id):
            if node_id == 0:
                cell.bridge.send(1, "probe", "a", plan.lookahead_ns)
                cell.bridge.send(1, "probe", "b", plan.lookahead_ns)
            else:
                cell.bridge.send(1, "probe", "self", plan.lookahead_ns)
            gate.next_send_ns = None

        sim.schedule_at(0.0, send)
        cell.on(
            "probe",
            lambda msg, sim=sim: arrivals.append(
                (sim.now, msg.src_node, msg.seq, msg.payload)
            ),
        )
        cell.fragment = dict
        cells[node_id] = cell
    return cells, arrivals


@pytest.mark.parametrize("partitions", [1, 2])
def test_simultaneous_deliveries_follow_canonical_order(partitions):
    plan = PartitionPlan.build(2, partitions)
    cells, arrivals = _echo_cells(plan)
    runtimes = [PartitionRuntime(p, plan) for p in range(partitions)]
    for node_id, cell in cells.items():
        runtimes[plan.partition_of(node_id)].add_cell(cell)
    stats = run_conservative(plan, runtimes)
    lam = plan.lookahead_ns
    # all three land at t = lookahead on node 1, ordered (src, seq)
    assert arrivals == [
        (lam, 0, 0, "a"), (lam, 0, 1, "b"), (lam, 1, 0, "self")
    ]
    assert stats.messages == 3


def test_stalled_send_gate_raises():
    plan = PartitionPlan.build(1, 1)
    sim = Simulator()
    cell = NodeCell(0, sim)
    cell.gate(0.0)              # claims a send at t=0 ...
    sim.schedule_at(1_000.0, lambda _: None)   # ... but nothing fires there
    runtime = PartitionRuntime(0, plan)
    runtime.add_cell(cell)
    with pytest.raises(ShardError):
        run_conservative(plan, [runtime])


def test_unbounded_window_send_raises():
    plan = PartitionPlan.build(1, 1)
    sim = Simulator()
    cell = NodeCell(0, sim)
    runtime = PartitionRuntime(0, plan)
    runtime.add_cell(cell)
    # no gate registered, so the coordinator grants an infinite window;
    # a send inside it is a protocol violation, not silent corruption
    sim.schedule_at(5.0, lambda _: cell.bridge.send(0, "x", {}, plan.lookahead_ns))
    with pytest.raises(ShardError):
        run_conservative(plan, [runtime])


def test_missing_handler_raises():
    plan = PartitionPlan.build(1, 1)
    sim = Simulator()
    cell = NodeCell(0, sim)
    gate = cell.gate(0.0)

    def send(_):
        cell.bridge.send(0, "unhandled", {}, plan.lookahead_ns)
        gate.next_send_ns = None

    sim.schedule_at(0.0, send)
    runtime = PartitionRuntime(0, plan)
    runtime.add_cell(cell)
    with pytest.raises(ShardError):
        run_conservative(plan, [runtime])


def test_pause_stops_before_boundary_events_fire():
    plan = PartitionPlan.build(1, 1)
    sim = Simulator()
    cell = NodeCell(0, sim)
    fired = []
    sim.schedule_at(10.0, lambda _: fired.append(10.0))
    sim.schedule_at(100.0, lambda _: fired.append(100.0))
    runtime = PartitionRuntime(0, plan)
    runtime.add_cell(cell)
    run_conservative(plan, [runtime], pause_at_ns=100.0)
    # strictly-below semantics: the event at the boundary did not fire
    assert fired == [10.0]


# ----------------------------------------------------------------------
# telemetry stream merge
# ----------------------------------------------------------------------
def test_merge_streams_canonical_tiebreak():
    merged = merge_streams({
        1: [(5.0, 0, "n1a"), (5.0, 1, "n1b")],
        0: [(5.0, 0, "n0a"), (7.0, 0, "n0b")],
    })
    assert merged == [
        (5.0, 0, 0, "n0a"),
        (5.0, 1, 0, "n1a"),
        (5.0, 1, 1, "n1b"),
        (7.0, 0, 0, "n0b"),
    ]


def test_merge_streams_rejects_unsorted_input():
    with pytest.raises(ValueError):
        merge_streams({0: [(5.0, 1, "x"), (5.0, 0, "y")]})
