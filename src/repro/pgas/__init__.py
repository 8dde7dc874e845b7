"""The PGAS layer: NUMA-aware global memory management.

ECOSCALE treats "the global memory in each compute node as a collection
of NUMA domains accessible via the UNIMEM interface" and explores
"topology-aware global memory allocators in these domains, to be used by
the OpenCL runtime for implicit data allocation, migration and
replication between workers" (Section 4.4).
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "allocator": "Allocation AllocationError GlobalAllocator",
    "migration": "MigrationPolicy MigrationStats",
    "numa": "NumaDomain NumaMap",
})
