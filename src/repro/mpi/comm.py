"""Communicators and collectives over the simulated inter-node network.

Collectives use the classic algorithms so their *scaling* is right:

- broadcast / reduce: binomial tree, ``ceil(log2 P)`` rounds,
- allreduce / allgather: recursive doubling, ``ceil(log2 P)`` rounds,
- alltoall: pairwise exchange, ``P - 1`` rounds,
- barrier: zero-byte allreduce.

Costs are computed analytically over the network's routed paths: each
round's latency is the maximum message latency in that round (ranks
progress in lockstep), energies add up.  This matches how ECOSCALE's
"CPU-based routers following the application topology" (Section 4) would
carry MPI traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, List, Sequence, Tuple

from repro.interconnect.message import Message, TransactionType
from repro.interconnect.network import Network


@dataclass
class CollectiveResult:
    """Cost report for one collective call."""

    name: str
    latency_ns: float
    energy_pj: float
    bytes_moved: int
    rounds: int


class Communicator:
    """A set of ranks, each bound to a network endpoint."""

    def __init__(self, network: Network, rank_to_node: Sequence[Hashable], name: str = "world") -> None:
        if not rank_to_node:
            raise ValueError("a communicator needs at least one rank")
        self.network = network
        self.rank_to_node: List[Hashable] = list(rank_to_node)
        self.name = name
        self.collective_log: List[CollectiveResult] = []

    @property
    def size(self) -> int:
        return len(self.rank_to_node)

    def node_of(self, rank: int) -> Hashable:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range for size {self.size}")
        return self.rank_to_node[rank]

    def sub_communicator(self, ranks: Sequence[int], name: str = "") -> "Communicator":
        """MPI_Comm_split-style subset communicator."""
        nodes = [self.node_of(r) for r in ranks]
        return Communicator(self.network, nodes, name or f"{self.name}.sub")

    # ------------------------------------------------------------------
    # point to point
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, size_bytes: int) -> Tuple[float, float]:
        """(latency_ns, energy_pj) for one message; accounts link traffic."""
        if src == dst:
            return 0.0, 0.0
        msg = Message(
            self.node_of(src), self.node_of(dst), size_bytes, TransactionType.MPI
        )
        return self.network.send_cost(msg)

    def _round_cost(self, pairs: Sequence[Tuple[int, int]], size_bytes: int) -> Tuple[float, float, int]:
        """One lockstep round of concurrent (src, dst) messages."""
        worst = 0.0
        energy = 0.0
        moved = 0
        for src, dst in pairs:
            lat, e = self.send(src, dst, size_bytes)
            worst = max(worst, lat)
            energy += e
            moved += size_bytes
        return worst, energy, moved

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def _log(self, result: CollectiveResult) -> CollectiveResult:
        self.collective_log.append(result)
        return result

    def broadcast(self, root: int, size_bytes: int) -> CollectiveResult:
        """Binomial-tree broadcast from ``root``."""
        self.node_of(root)
        p = self.size
        have = {root}
        latency = energy = 0.0
        moved = rounds = 0
        stride = 1
        while len(have) < p:
            pairs = []
            senders = sorted(have)
            for s in senders:
                # sender s covers rank (s_rel + stride) relative to root
                rel = (s - root) % p
                target_rel = rel + stride
                if target_rel < p:
                    t = (root + target_rel) % p
                    if t not in have:
                        pairs.append((s, t))
            if not pairs:
                break
            lat, e, m = self._round_cost(pairs, size_bytes)
            latency += lat
            energy += e
            moved += m
            for _, t in pairs:
                have.add(t)
            stride *= 2
            rounds += 1
        return self._log(
            CollectiveResult("broadcast", latency, energy, moved, rounds)
        )

    def reduce(self, root: int, size_bytes: int) -> CollectiveResult:
        """Binomial-tree reduction to ``root`` (same round structure as
        broadcast, reversed; identical cost model)."""
        r = self.broadcast(root, size_bytes)
        self.collective_log.pop()
        return self._log(
            CollectiveResult("reduce", r.latency_ns, r.energy_pj, r.bytes_moved, r.rounds)
        )

    def allreduce(self, size_bytes: int) -> CollectiveResult:
        """Recursive-doubling allreduce (power-of-two padded)."""
        p = self.size
        if p == 1:
            return self._log(CollectiveResult("allreduce", 0.0, 0.0, 0, 0))
        rounds_needed = math.ceil(math.log2(p))
        latency = energy = 0.0
        moved = 0
        for k in range(rounds_needed):
            stride = 1 << k
            pairs = []
            for rank in range(p):
                partner = rank ^ stride
                if partner < p and rank < partner:
                    pairs.append((rank, partner))
                    pairs.append((partner, rank))
            if not pairs:
                continue
            lat, e, m = self._round_cost(pairs, size_bytes)
            latency += lat
            energy += e
            moved += m
        return self._log(
            CollectiveResult("allreduce", latency, energy, moved, rounds_needed)
        )

    def allgather(self, size_bytes_per_rank: int) -> CollectiveResult:
        """Recursive doubling; message size doubles per round."""
        p = self.size
        if p == 1:
            return self._log(CollectiveResult("allgather", 0.0, 0.0, 0, 0))
        rounds_needed = math.ceil(math.log2(p))
        latency = energy = 0.0
        moved = 0
        chunk = size_bytes_per_rank
        for k in range(rounds_needed):
            stride = 1 << k
            pairs = []
            for rank in range(p):
                partner = rank ^ stride
                if partner < p and rank < partner:
                    pairs.append((rank, partner))
                    pairs.append((partner, rank))
            lat, e, m = self._round_cost(pairs, chunk)
            latency += lat
            energy += e
            moved += m
            chunk *= 2
        return self._log(
            CollectiveResult("allgather", latency, energy, moved, rounds_needed)
        )

    def alltoall(self, size_bytes_per_pair: int) -> CollectiveResult:
        """Pairwise-exchange alltoall: P-1 rounds, XOR pairing when P is a
        power of two, rotation otherwise."""
        p = self.size
        if p == 1:
            return self._log(CollectiveResult("alltoall", 0.0, 0.0, 0, 0))
        latency = energy = 0.0
        moved = 0
        rounds = p - 1
        power_of_two = p & (p - 1) == 0
        for step in range(1, p):
            pairs = []
            for rank in range(p):
                partner = (rank ^ step) if power_of_two else ((rank + step) % p)
                if partner != rank:
                    pairs.append((rank, partner))
            lat, e, m = self._round_cost(pairs, size_bytes_per_pair)
            latency += lat
            energy += e
            moved += m
        return self._log(
            CollectiveResult("alltoall", latency, energy, moved, rounds)
        )

    def barrier(self) -> CollectiveResult:
        """Zero-payload allreduce."""
        r = self.allreduce(0)
        self.collective_log.pop()
        return self._log(
            CollectiveResult("barrier", r.latency_ns, r.energy_pj, 0, r.rounds)
        )

    # ------------------------------------------------------------------
    def halo_exchange(
        self, topology, size_bytes: int
    ) -> CollectiveResult:
        """Neighbour exchange over an MPI topology (Cart or Graph): every
        rank sends one halo to each neighbour, all concurrently."""
        pairs = []
        for rank in range(self.size):
            for n in topology.neighbours(rank):
                pairs.append((rank, n))
        lat, e, m = self._round_cost(pairs, size_bytes)
        return self._log(CollectiveResult("halo_exchange", lat, e, m, 1))
