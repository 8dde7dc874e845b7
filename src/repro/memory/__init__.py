"""The UNIMEM memory system.

UNIMEM (from the EUROSERVER project, extended here per ECOSCALE) provides a
*partitioned global address space*: every Worker's DRAM appears in one
contiguous system-wide physical address space, and remote memory is reached
with plain load/store transactions rather than a message-passing API.

The key consistency rule -- the basis of the UNIMEM model and the reason it
needs no global cache-coherence protocol -- is that **a memory page may be
cacheable at exactly one coherence island** (its *home*): either the node
that owns the backing DRAM or one remote node, never both at once
(paper, Section 2).

Units used throughout: simulated time in **nanoseconds**, sizes in
**bytes**, energy in **picojoules**.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "address": "PAGE_SHIFT PAGE_SIZE AddressRange GlobalAddressMap",
    "cache": "Cache CacheGeometry CacheStats",
    "dram": "Dram DramTiming",
    "page": "Page PageOwnershipError PageRegistry",
    "smmu": "PageTable Smmu SmmuFault TranslationRegime",
    "ssd": "Ssd SsdTiming out_of_core_passes out_of_core_sort_cost_ns",
    "translation": "ProgressiveTranslator TranslationStep build_hierarchy_translator",
    "unimem": "AccessPlan UnimemSpace",
})
