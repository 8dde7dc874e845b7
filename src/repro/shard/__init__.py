"""Sharded simulation engine: Compute-Node partitions under conservative sync.

The machine is decomposed by Compute Node -- every node owns a private
:class:`~repro.sim.Simulator` plus its full mechanism stack -- and nodes
are grouped into partitions that advance in lockstep lookahead windows
(:mod:`repro.shard.sync`).  Partitions run inline or in forked worker
processes (:mod:`repro.shard.backends`); policy stays on the coordinator
or node 0 and travels over the bridge.  Canonical merged reports
(:mod:`repro.shard.merge`) are byte-identical at any partition count on
any backend.
"""

from repro.shard.backends import BACKENDS, ShardSet, resolve_backend
from repro.shard.bridge import BridgeMessage, NodeBridge, sort_messages
from repro.shard.checkpoint import (
    capture_sharded_jobs,
    manifest_json,
    restore_sharded_jobs,
)
from repro.shard.experiments import (
    run_sharded_chaos,
    run_sharded_jobs,
    run_sharded_serving,
)
from repro.shard.merge import merged_report, report_json
from repro.shard.plan import PartitionPlan, ShardError, default_lookahead_ns
from repro.shard.sync import (
    NodeCell,
    PartitionRuntime,
    SendGate,
    SyncStats,
    run_conservative,
)

__all__ = [
    "BACKENDS",
    "BridgeMessage",
    "NodeBridge",
    "NodeCell",
    "PartitionPlan",
    "PartitionRuntime",
    "SendGate",
    "ShardError",
    "ShardSet",
    "SyncStats",
    "capture_sharded_jobs",
    "default_lookahead_ns",
    "manifest_json",
    "merged_report",
    "report_json",
    "resolve_backend",
    "restore_sharded_jobs",
    "run_conservative",
    "run_sharded_chaos",
    "run_sharded_jobs",
    "run_sharded_serving",
    "sort_messages",
]
