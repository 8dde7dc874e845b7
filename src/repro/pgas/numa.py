"""NUMA domains and inter-domain distances.

Each Worker's DRAM window is one NUMA domain of the Compute Node's
global address space; distances come from interconnect hop counts so the
allocator's notion of "near" matches the machine topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence

from repro.interconnect.network import Network
from repro.memory.address import AddressRange


@dataclass(frozen=True)
class NumaDomain:
    """One Worker's memory domain inside the global space."""

    domain_id: int
    worker_node: Hashable     # the network endpoint
    window: AddressRange


class NumaMap:
    """Domains plus a hop-distance matrix."""

    def __init__(
        self,
        domains: Sequence[NumaDomain],
        network: Optional[Network] = None,
    ) -> None:
        if not domains:
            raise ValueError("need at least one NUMA domain")
        ids = [d.domain_id for d in domains]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate domain ids")
        self.domains: List[NumaDomain] = list(domains)
        self._by_id: Dict[int, NumaDomain] = {d.domain_id: d for d in domains}
        self._distance: Dict[tuple, int] = {}
        if network is not None:
            # one sweep per distinct endpoint (LCA walks on a tree-indexed
            # network) instead of one search per (domain, domain) pair
            nodes = {d.worker_node for d in domains}
            by_src: Dict[Hashable, Dict[Hashable, int]] = {}
            for a in domains:
                if a.worker_node not in by_src:
                    by_src[a.worker_node] = network.hop_distances_from(a.worker_node, nodes)
            for a in domains:
                dist = by_src[a.worker_node]
                for b in domains:
                    self._distance[(a.domain_id, b.domain_id)] = (
                        0 if a.domain_id == b.domain_id else dist[b.worker_node]
                    )

    def __len__(self) -> int:
        return len(self.domains)

    def domain(self, domain_id: int) -> NumaDomain:
        if domain_id not in self._by_id:
            raise KeyError(f"no NUMA domain {domain_id}")
        return self._by_id[domain_id]

    def domain_of_address(self, addr: int) -> NumaDomain:
        for d in self.domains:
            if d.window.contains(addr):
                return d
        raise ValueError(f"address {addr:#x} not in any NUMA domain")

    def distance(self, a: int, b: int) -> int:
        if (a, b) in self._distance:
            return self._distance[(a, b)]
        # no network given: uniform unit distance
        self.domain(a)
        self.domain(b)
        return 0 if a == b else 1

    def nearest_domains(self, origin: int) -> List[NumaDomain]:
        """Domains sorted by distance from ``origin`` (origin first)."""
        return sorted(
            self.domains, key=lambda d: (self.distance(origin, d.domain_id), d.domain_id)
        )
