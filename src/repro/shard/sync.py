"""Conservative window synchronization across partitions.

The coordinator advances every partition in lockstep windows:

1. each partition reports its earliest pending event time and its
   earliest possible *send* time (explicit send gates registered by the
   experiment, plus any not-yet-delivered inbound message that a handler
   could answer),
2. the safe horizon is ``min(earliest send) + lookahead`` -- no
   cross-node message can arrive before it,
3. each partition fires every event strictly below the horizon
   (``Simulator.run_window``), collecting outgoing bridge messages,
4. the coordinator sorts the window's messages by the canonical
   ``(deliver_ns, src_node, seq)`` key and hands each partition its
   inbound slice, which is scheduled *before* any local event at the
   same timestamp exists -- the deterministic tie-break.

Because the earliest-send minimum is global, the window schedule -- and
therefore every node simulator's event/seq trajectory -- is identical at
any partition count and for any backend.  That is the whole
byte-identity argument, made by construction rather than by merging
heuristics.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.shard.bridge import BridgeMessage, NodeBridge, sort_messages
from repro.shard.plan import PartitionPlan, ShardError


class SendGate:
    """An experiment's declaration of when a node may next send.

    ``next_send_ns`` is the earliest simulated time at which the node's
    own processes may call ``bridge.send`` (``None`` = never again).
    Replies fired from inbound-message handlers are covered separately
    by the runtime's pending-delivery tracking, so gates only describe
    *self-initiated* sends.
    """

    __slots__ = ("next_send_ns",)

    def __init__(self, next_send_ns: Optional[float] = None) -> None:
        self.next_send_ns = next_send_ns


class NodeCell:
    """One Compute Node's simulation island inside a partition."""

    def __init__(self, node_id: int, sim) -> None:
        self.node_id = node_id
        self.sim = sim
        self.bridge: Optional[NodeBridge] = None   # set by the runtime
        self.handlers: Dict[str, Callable[[BridgeMessage], None]] = {}
        self.gates: List[SendGate] = []
        self.fragment: Optional[Callable[[], dict]] = None
        self.capturer: Optional[Callable[[], dict]] = None  # checkpoint state
        # drops the run state a paused run still holds, at close
        self.closer: Optional[Callable[[], None]] = None

    def gate(self, next_send_ns: Optional[float] = None) -> SendGate:
        g = SendGate(next_send_ns)
        self.gates.append(g)
        return g

    def on(self, kind: str, handler: Callable[[BridgeMessage], None]) -> None:
        if kind in self.handlers:
            raise ShardError(f"duplicate handler for {kind!r} on node {self.node_id}")
        self.handlers[kind] = handler


class PartitionRuntime:
    """All node cells of one partition plus the sync bookkeeping.

    Implements the shard-client protocol the coordinator drives:
    ``eot`` / ``advance`` / ``deliver`` / ``fragments``.  The inline and
    process backends both wrap exactly this object, so grant math and
    delivery ordering cannot diverge between them.
    """

    def __init__(self, partition: int, plan: PartitionPlan) -> None:
        self.partition = partition
        self.plan = plan
        self.cells: Dict[int, NodeCell] = {}
        # min-tracking for scheduled-but-unfired inbound deliveries: a
        # handler may reply the moment its message fires, so every
        # pending delivery is a potential send time
        self._pending: List[float] = []
        self._fired: Dict[float, int] = {}
        self.delivered = 0

    def add_cell(self, cell: NodeCell) -> NodeCell:
        if self.plan.partition_of(cell.node_id) != self.partition:
            raise ShardError(
                f"node {cell.node_id} does not belong to partition {self.partition}"
            )
        if cell.node_id in self.cells:
            raise ShardError(f"duplicate cell for node {cell.node_id}")
        cell.bridge = NodeBridge(cell.node_id, cell.sim, self.plan.lookahead_ns)
        self.cells[cell.node_id] = cell
        return cell

    # ------------------------------------------------------------------
    # shard-client protocol
    # ------------------------------------------------------------------
    def eot(self) -> Tuple[Optional[float], Optional[float]]:
        """(earliest pending event, earliest possible send) or Nones."""
        nxt: Optional[float] = None
        send: Optional[float] = None
        for node_id in sorted(self.cells):
            cell = self.cells[node_id]
            t = cell.sim.peek()
            if t is not None and (nxt is None or t < nxt):
                nxt = t
            for gate in cell.gates:
                g = gate.next_send_ns
                if g is not None and (send is None or g < send):
                    send = g
        pend = self._earliest_pending()
        if pend is not None and (send is None or pend < send):
            send = pend
        return nxt, send

    def advance(self, horizon: float) -> Tuple[int, List[BridgeMessage]]:
        """Fire everything below ``horizon``; return (fired, outbox)."""
        fired = 0
        out: List[BridgeMessage] = []
        for node_id in sorted(self.cells):
            cell = self.cells[node_id]
            fired += cell.sim.run_window(horizon)
            out.extend(cell.bridge.drain())
        if out and math.isinf(horizon):
            raise ShardError(
                "bridge send during an unbounded window: the sending node "
                "has no registered SendGate covering it"
            )
        return fired, out

    def deliver(self, messages: List[BridgeMessage]) -> None:
        """Schedule inbound messages (already in canonical order)."""
        for msg in messages:
            cell = self.cells.get(msg.dst_node)
            if cell is None:
                raise ShardError(
                    f"message for node {msg.dst_node} routed to partition "
                    f"{self.partition}"
                )
            heapq.heappush(self._pending, msg.deliver_ns)
            cell.sim.schedule_at(msg.deliver_ns, self._dispatch, msg)
            self.delivered += 1

    def fragments(self) -> Dict[int, dict]:
        """Every cell's report fragment, keyed by node id."""
        out: Dict[int, dict] = {}
        for node_id in sorted(self.cells):
            cell = self.cells[node_id]
            if cell.fragment is None:
                raise ShardError(f"node {node_id} has no fragment collector")
            out[node_id] = cell.fragment()
        return out

    def capture(self) -> Dict[int, dict]:
        """Checkpoint state per node (cells without a capturer are skipped)."""
        out: Dict[int, dict] = {}
        for node_id in sorted(self.cells):
            cell = self.cells[node_id]
            if cell.capturer is not None:
                out[node_id] = cell.capturer()
        return out

    def close(self) -> None:
        """Drop every cell's message handlers and close its simulator.
        Builders' handlers close over their own cell, and a run paused
        mid-flight (a checkpoint capture) still holds suspended
        processes; either would leave the node to the cyclic collector.
        Nothing may fire after the run anyway."""
        for cell in self.cells.values():
            cell.handlers.clear()
            if cell.closer is not None:
                cell.closer()
            cell.sim.close()

    # ------------------------------------------------------------------
    def _dispatch(self, msg: BridgeMessage) -> None:
        self._fired[msg.deliver_ns] = self._fired.get(msg.deliver_ns, 0) + 1
        cell = self.cells[msg.dst_node]
        cell.bridge.received += 1
        handler = cell.handlers.get(msg.kind)
        if handler is None:
            raise ShardError(
                f"node {cell.node_id} has no handler for bridge kind {msg.kind!r}"
            )
        handler(msg)

    def _earliest_pending(self) -> Optional[float]:
        heap, fired = self._pending, self._fired
        while heap:
            t = heap[0]
            n = fired.get(t, 0)
            if n:
                if n == 1:
                    del fired[t]
                else:
                    fired[t] = n - 1
                heapq.heappop(heap)
                continue
            return t
        return None


@dataclass
class SyncStats:
    """Partition-count-invariant protocol counters (safe to report)."""

    windows: int = 0
    messages: int = 0
    events: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "windows": self.windows,
            "messages": self.messages,
            "events": self.events,
        }


def run_conservative(
    plan: PartitionPlan,
    shards: List,
    pause_at_ns: Optional[float] = None,
) -> SyncStats:
    """Drive the window loop over shard clients until global quiescence.

    ``shards`` are objects speaking the shard-client protocol (inline
    :class:`PartitionRuntime` instances or process-backend proxies).
    ``pause_at_ns`` stops the loop once every partition's next event is
    at or beyond that time (the sharded checkpoint boundary): everything
    below fired, nothing at or above did.
    """
    stats = SyncStats()
    while True:
        eots = [s.eot() for s in shards]
        nexts = [e for e, _ in eots if e is not None]
        if not nexts:
            break
        earliest = min(nexts)
        if pause_at_ns is not None and earliest >= pause_at_ns:
            break
        sends = [s for _, s in eots if s is not None]
        horizon = (min(sends) + plan.lookahead_ns) if sends else math.inf
        if pause_at_ns is not None:
            horizon = min(horizon, pause_at_ns)
        if horizon <= earliest:
            raise ShardError(
                f"stalled window: horizon {horizon} ns cannot reach the "
                f"earliest event at {earliest} ns (a SendGate was left in "
                "the past)"
            )
        fired = 0
        out: List[BridgeMessage] = []
        # split-phase: post the window to every shard before collecting
        # any reply, so process-backend shards advance concurrently;
        # replies are still folded in shard order, so ordering is
        # backend-invariant
        split = [shard for shard in shards if hasattr(shard, "advance_post")]
        for shard in split:
            shard.advance_post(horizon)
        for shard in shards:
            if shard in split:
                f, o = shard.advance_wait()
            else:
                f, o = shard.advance(horizon)
            fired += f
            out.extend(o)
        stats.windows += 1
        stats.events += fired
        if out:
            ordered = sort_messages(out)
            stats.messages += len(ordered)
            for shard in shards:
                mine = [
                    m for m in ordered
                    if plan.partition_of(m.dst_node) == shard.partition
                ]
                if mine:
                    shard.deliver(mine)
        elif fired == 0:
            raise ShardError("window fired no events and moved no messages")
    return stats
