"""The full ECOSCALE machine: Compute Nodes joined by an MPI network.

"The Compute Nodes are interconnected through an MPI-based multi-layer
interconnection" matching the application topology of Fig. 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.compute_node import ComputeNode, ComputeNodeParams
from repro.energy.accounting import EnergyLedger
from repro.interconnect.network import Network
from repro.interconnect.topology import build_tree, level_params
from repro.memory.translation import ProgressiveTranslator, build_hierarchy_translator
from repro.mpi.comm import Communicator
from repro.sim import Simulator


@dataclass(frozen=True)
class MachineParams:
    """Shape of the whole machine.

    ``inter_node_fanouts`` describes the tree above the Compute Nodes
    (chassis / cabinet levels); its product must equal ``num_nodes``.
    """

    num_nodes: int = 2
    node: ComputeNodeParams = ComputeNodeParams()
    inter_node_fanouts: Optional[Sequence[int]] = None

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("need at least one compute node")
        if self.inter_node_fanouts is not None:
            product = 1
            for f in self.inter_node_fanouts:
                product *= f
            if product != self.num_nodes:
                raise ValueError(
                    f"fanouts {self.inter_node_fanouts} do not produce "
                    f"{self.num_nodes} nodes"
                )


class Machine:
    """Compute Nodes + the inter-node (MPI) network + world communicator."""

    def __init__(
        self,
        sim: Simulator,
        params: MachineParams = MachineParams(),
        ledger: Optional[EnergyLedger] = None,
    ) -> None:
        self.sim = sim
        self.params = params
        self.ledger = ledger if ledger is not None else EnergyLedger()

        self.nodes: List[ComputeNode] = [
            ComputeNode(sim, params.node, node_id=i, ledger=self.ledger)
            for i in range(params.num_nodes)
        ]

        fanouts = params.inter_node_fanouts or [params.num_nodes]
        # inter-node links are the upper hierarchy levels: shift level
        # params up by the intra-node depth so costs keep climbing.
        depth = len(fanouts)
        level_shift = 1
        params_per_level = [
            level_params(depth - 1 - d + level_shift) for d in range(depth)
        ]
        self.inter_network, endpoints = build_tree(sim, list(fanouts), params_per_level)
        self.node_endpoints = endpoints
        self.world = Communicator(self.inter_network, endpoints, name="world")

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def total_workers(self) -> int:
        return sum(len(n) for n in self.nodes)

    def node(self, node_id: int) -> ComputeNode:
        return self.nodes[node_id]

    def worker(self, node_id: int, worker_id: int):
        return self.nodes[node_id].worker(worker_id)

    # ------------------------------------------------------------------
    def max_hop_distance(self) -> int:
        """Worst-case Worker-to-Worker hops: through both intra trees and
        the inter-node tree (the Section 2 'five hops at petascale, six
        or seven at exascale' metric)."""
        intra = max(
            n.network.diameter_hops(n.endpoints) for n in self.nodes
        )
        if len(self.nodes) == 1:
            return intra
        inter = self.inter_network.diameter_hops(self.node_endpoints)
        # leaf -> node root (intra/2 up) + inter + node root -> leaf
        return intra + inter

    def total_energy_pj(self) -> float:
        return self.ledger.total_pj()

    def energy_breakdown(self) -> dict:
        return self.ledger.breakdown(depth=2)

    # ------------------------------------------------------------------
    # cross-node interprocessor communication (progressive translation)
    # ------------------------------------------------------------------
    def cluster_translator(self) -> ProgressiveTranslator:
        """A progressive-address-translation chain matching this
        machine's hierarchy depth (Katevenis [12] on top of UNIMEM:
        cross-node addresses are rewritten once per level crossed, so
        no node holds a global map)."""
        fanouts = self.params.inter_node_fanouts or [self.params.num_nodes]
        # one level per inter-node tier plus one for the node boundary
        return build_hierarchy_translator(levels=len(fanouts) + 1)
