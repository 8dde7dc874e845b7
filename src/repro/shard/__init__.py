"""Sharded simulation engine: Compute-Node partitions under conservative sync.

The machine is decomposed by Compute Node -- every node owns a private
:class:`~repro.sim.Simulator` plus its full mechanism stack -- and nodes
are grouped into partitions that advance in lockstep lookahead windows
(:mod:`repro.shard.sync`).  Partitions run inline or in persistent worker
processes (:mod:`repro.shard.backends`); policy stays on the coordinator
or node 0 and travels over the bridge.  Canonical merged reports
(:mod:`repro.shard.merge`) are byte-identical at any partition count on
any backend.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "backends": "BACKENDS ShardSet resolve_backend",
    "bridge": "BridgeMessage NodeBridge sort_messages",
    "checkpoint": "capture_sharded_jobs manifest_json restore_sharded_jobs",
    "experiments": "run_sharded_chaos run_sharded_jobs run_sharded_serving",
    "merge": "merged_report report_json",
    "plan": "PartitionPlan ShardError default_lookahead_ns",
    "sync": "NodeCell PartitionRuntime SendGate SyncStats run_conservative",
})
