"""The topology-aware global memory allocator.

Allocations name an *affinity domain* (where the consuming task runs);
the allocator places them in that NUMA domain if it has room, else in the
nearest domain with space -- the "topology-aware global memory
allocators ... used by the OpenCL runtime for implicit data allocation"
of Section 4.4.

Placement within a domain is page-aligned first-fit with free-list
coalescing; simple, deterministic, and fragmentation behaviour is
realistic enough for the migration experiments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.memory.address import PAGE_SIZE, AddressRange
from repro.pgas.numa import NumaMap

_allocation_ids = itertools.count()


class AllocationError(RuntimeError):
    """No domain can satisfy the request."""


@dataclass
class Allocation:
    """One live global-memory allocation."""

    range: AddressRange
    domain_id: int
    requested_bytes: int
    alloc_id: int = field(default_factory=lambda: next(_allocation_ids))

    @property
    def base(self) -> int:
        return self.range.base

    @property
    def size(self) -> int:
        return self.range.size


def _round_up_pages(size: int) -> int:
    return ((size + PAGE_SIZE - 1) // PAGE_SIZE) * PAGE_SIZE


class _DomainArena:
    """First-fit free-list arena for one NUMA domain."""

    def __init__(self, window: AddressRange) -> None:
        self.window = window
        self._free: List[AddressRange] = [window]

    def free_bytes(self) -> int:
        return sum(r.size for r in self._free)

    def largest_hole(self) -> int:
        return max((r.size for r in self._free), default=0)

    def allocate(self, size: int) -> Optional[AddressRange]:
        for i, hole in enumerate(self._free):
            if hole.size >= size:
                taken = AddressRange(hole.base, size)
                remainder = AddressRange(hole.base + size, hole.size - size)
                if remainder.size > 0:
                    self._free[i] = remainder
                else:
                    del self._free[i]
                return taken
        return None

    def release(self, rng: AddressRange) -> None:
        self._free.append(rng)
        self._free.sort(key=lambda r: r.base)
        merged: List[AddressRange] = []
        for hole in self._free:
            if merged and merged[-1].end == hole.base:
                merged[-1] = AddressRange(merged[-1].base, merged[-1].size + hole.size)
            else:
                merged.append(hole)
        self._free = merged


class GlobalAllocator:
    """Allocates page-aligned blocks across the Compute Node's domains."""

    def __init__(self, numa: NumaMap) -> None:
        self.numa = numa
        self._arenas: Dict[int, _DomainArena] = {
            d.domain_id: _DomainArena(d.window) for d in numa.domains
        }
        self._live: Dict[int, Allocation] = {}
        self.total_allocations = 0
        self.spill_count = 0  # allocations that missed their affinity domain

    # ------------------------------------------------------------------
    def allocate(self, size: int, affinity_domain: int) -> Allocation:
        """Place ``size`` bytes as close to ``affinity_domain`` as possible."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        rounded = _round_up_pages(size)
        for domain in self.numa.nearest_domains(affinity_domain):
            rng = self._arenas[domain.domain_id].allocate(rounded)
            if rng is not None:
                self.total_allocations += 1
                if domain.domain_id != affinity_domain:
                    self.spill_count += 1
                alloc = Allocation(rng, domain.domain_id, size)
                self._live[alloc.alloc_id] = alloc
                return alloc
        raise AllocationError(
            f"no domain can hold {rounded} bytes "
            f"(largest holes: {[a.largest_hole() for a in self._arenas.values()]})"
        )

    def allocate_striped(self, size: int, domains: List[int]) -> List[Allocation]:
        """Distribute ``size`` bytes round-robin across ``domains`` --
        replication/striping for bandwidth (one slice per domain)."""
        if not domains:
            raise ValueError("need at least one domain to stripe over")
        slice_size = _round_up_pages((size + len(domains) - 1) // len(domains))
        return [self.allocate(slice_size, d) for d in domains]

    def free(self, alloc: Allocation) -> None:
        if alloc.alloc_id not in self._live:
            raise AllocationError(f"allocation {alloc.alloc_id} is not live")
        del self._live[alloc.alloc_id]
        self._arenas[alloc.domain_id].release(alloc.range)

    # ------------------------------------------------------------------
    def free_bytes(self, domain_id: Optional[int] = None) -> int:
        if domain_id is not None:
            return self._arenas[domain_id].free_bytes()
        return sum(a.free_bytes() for a in self._arenas.values())

    def locality_fraction(self) -> float:
        """Fraction of all allocations so far that landed on their
        affinity domain (1.0 = perfect locality)."""
        if self.total_allocations == 0:
            return 1.0
        return 1.0 - self.spill_count / self.total_allocations
