"""The ECOSCALE core: Workers, Compute Nodes, UNILOGIC and the runtime.

This package is the paper's contribution proper, assembled from the
substrate packages:

- :class:`Worker` (Fig. 4): CPU + cache + DRAM + reconfigurable block +
  dual-stage SMMU + virtualization block.
- :class:`ComputeNode` (Fig. 3): a PGAS sub-system of Workers on a
  multi-layer interconnect sharing a UNIMEM address space.
- :class:`UnilogicDomain`: shared partitioned reconfigurable resources --
  any Worker can invoke any Reconfigurable block in the domain; local
  blocks cache coherently (ACE), remote ones run cache-disabled
  (ACE-lite).
- :class:`Machine` (Fig. 1/3): Compute Nodes joined by an MPI-style
  inter-node network.
- :mod:`repro.core.runtime` (Fig. 5): schedulers, execution history,
  prediction models, the reconfiguration daemon and the execution engine.
- :mod:`repro.core.middleware`: the partial-reconfiguration toolset and
  the SW-HW communication library.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "compute_node": "ComputeNode ComputeNodeParams",
    "machine": "Machine MachineParams",
    "resilience": "FaultInjector FaultRecord RecoveryManager",
    "sync": "AtomicCell UnimemBarrier UnimemLock",
    "unilogic": "AcceleratorAccess UnilogicDomain",
    "worker": "FunctionRegistry Worker WorkerParams",
})
