"""MPI-style message passing between Compute Nodes.

The ECOSCALE programming model "will start from the widely used MPI-3.0
standard, leveraging the new topology abstractions" (Section 4.4); MPI is
"used for efficient inter-PGAS communication" (Section 2).  This package
provides communicators over the simulated inter-node network,
point-to-point transfers, the standard collectives (implemented with the
classic algorithms so their cost *scales* correctly), and MPI-3.0-style
cartesian/graph process topologies.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "comm": "CollectiveResult Communicator",
    "placement": "improve_by_swaps place_by_blocks place_round_robin placement_cost",
    "topology": "CartTopology GraphTopology",
})
