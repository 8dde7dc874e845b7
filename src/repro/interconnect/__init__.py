"""Multi-layer hierarchical interconnect.

ECOSCALE Workers communicate "through a multi-layer interconnection, which
allows load and store commands, DMA operations, interrupts, and
synchronization" (Section 4.1, Fig. 3).  Compute Nodes are in turn joined
by an MPI-based multi-layer interconnect following the application
topology (Fig. 1).

This package provides:

- :class:`Link` -- a bandwidth/latency/energy-modelled channel with
  contention (a simulation :class:`~repro.sim.Resource`),
- :class:`Message` / :class:`TransactionType` -- what travels on links,
- :class:`Network` -- nodes + links + shortest-path routing, with both an
  analytic cost query and a simulated transfer process,
- topology builders: balanced trees (the ECOSCALE hierarchy), fat trees,
  2-D meshes, dragonfly and slimfly-like graphs for the partitioning
  study of Fig. 1.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "dma": "DmaEngine DmaParams DmaTransfer",
    "link": "Link LinkParams",
    "message": "Message TransactionType",
    "network": "Network Route",
    "topology": (
        "build_dragonfly build_fat_tree build_flat_crossbar build_mesh2d "
        "build_slimfly_like build_tree"
    ),
})
