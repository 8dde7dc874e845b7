"""HPC application workloads.

Real (numpy-backed) implementations of the computations ECOSCALE's use
cases revolve around, each paired with decomposition helpers so the same
workload can be partitioned hierarchically (Fig. 1) or flat:

- iterative Jacobi stencils (the canonical locality-rich HPC pattern),
- blocked dense matrix multiply,
- all-pairs n-body,
- Monte-Carlo option pricing (the Maxeler financial workload [18]),
- CART decision-tree classification (the Convey HC data-mining workload [17]),
- synthetic task DAGs with a tunable locality knob.
"""

from repro.apps.bfs import CsrGraph, bfs_levels, frontier_exchange_plan, random_graph
from repro.apps.cart import CartTree, make_classification
from repro.apps.mapping import (
    block_mapping,
    communication_bytes,
    cyclic_mapping,
    random_mapping,
)
from repro.apps.matmul import blocked_matmul, matmul_task_list
from repro.apps.montecarlo import european_call_mc, gbm_paths
from repro.apps.nbody import nbody_energy, nbody_step
from repro.apps.sorting import (
    SortExchange,
    choose_splitters,
    partition_data,
    plan_exchange,
    sample_sort,
)
from repro.apps.stencil import (
    StencilDecomposition,
    decompose_grid,
    halo_pairs,
    jacobi_reference,
    jacobi_step,
)
from repro.apps.taskgraph import Task, TaskGraph, graph_signature, make_layered_dag

__all__ = [
    "CartTree",
    "CsrGraph",
    "StencilDecomposition",
    "SortExchange",
    "Task",
    "TaskGraph",
    "block_mapping",
    "bfs_levels",
    "blocked_matmul",
    "communication_bytes",
    "cyclic_mapping",
    "decompose_grid",
    "european_call_mc",
    "frontier_exchange_plan",
    "gbm_paths",
    "graph_signature",
    "halo_pairs",
    "jacobi_reference",
    "jacobi_step",
    "make_classification",
    "make_layered_dag",
    "matmul_task_list",
    "nbody_energy",
    "nbody_step",
    "partition_data",
    "plan_exchange",
    "random_graph",
    "random_mapping",
    "sample_sort",
    "choose_splitters",
]
