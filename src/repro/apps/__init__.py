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

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "bfs": "CsrGraph bfs_levels frontier_exchange_plan random_graph",
    "cart": "CartTree make_classification",
    "mapping": "block_mapping communication_bytes cyclic_mapping random_mapping",
    "matmul": "blocked_matmul matmul_task_list",
    "montecarlo": "european_call_mc gbm_paths",
    "nbody": "nbody_energy nbody_step",
    "sorting": "SortExchange choose_splitters partition_data plan_exchange sample_sort",
    "stencil": (
        "StencilDecomposition decompose_grid halo_pairs jacobi_reference jacobi_step"
    ),
    "taskgraph": "Task TaskGraph graph_signature make_layered_dag",
})
