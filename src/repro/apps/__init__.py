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

import importlib

# name -> defining submodule; resolved on first access (PEP 562) so that
# importing one app, or the numpy-free task graphs, loads no other app
_EXPORTS = {
    "CartTree": "cart",
    "CsrGraph": "bfs",
    "StencilDecomposition": "stencil",
    "SortExchange": "sorting",
    "Task": "taskgraph",
    "TaskGraph": "taskgraph",
    "block_mapping": "mapping",
    "bfs_levels": "bfs",
    "blocked_matmul": "matmul",
    "communication_bytes": "mapping",
    "cyclic_mapping": "mapping",
    "decompose_grid": "stencil",
    "european_call_mc": "montecarlo",
    "frontier_exchange_plan": "bfs",
    "gbm_paths": "montecarlo",
    "graph_signature": "taskgraph",
    "halo_pairs": "stencil",
    "jacobi_reference": "stencil",
    "jacobi_step": "stencil",
    "make_classification": "cart",
    "make_layered_dag": "taskgraph",
    "matmul_task_list": "matmul",
    "nbody_energy": "nbody",
    "nbody_step": "nbody",
    "partition_data": "sorting",
    "plan_exchange": "sorting",
    "random_graph": "bfs",
    "random_mapping": "mapping",
    "sample_sort": "sorting",
    "choose_splitters": "sorting",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value

