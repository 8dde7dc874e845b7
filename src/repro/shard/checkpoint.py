"""Checkpoint/restore for sharded runs.

A sharded checkpoint pauses the conservative window loop at a time
boundary (everything strictly below ``pause_at_ns`` fired, nothing at or
above did), then captures each node's job progress.  Because the window
schedule is partition-invariant, the manifest is byte-identical whether
it was taken at 1 partition or 8 -- which is what makes cross-shape
restore (capture at 4 partitions, restore at 1, or vice versa) safe: the
manifest has no partition axis at all, only nodes.

Restore replays the manifest into a fresh sharded run: nodes that were
past their stage-in barrier resubmit their jobs at t=0 with the captured
completed-task sets; nodes that were not staged yet start from scratch.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.shard.plan import PartitionPlan, ShardError

SCHEMA = "repro-shard-ckpt/v1"


def capture_sharded_jobs(
    pause_at_ns: float,
    preset: str = "mini",
    seed: int = 0,
    num_nodes: int = 2,
    partitions: int = 1,
    backend: str = "auto",
) -> Dict[str, Any]:
    """Run sharded jobs up to ``pause_at_ns`` and snapshot every node."""
    from repro.presets import compiled_suite, job_preset
    from repro.shard.backends import ShardSet
    from repro.shard.experiments import build_jobs_node

    if pause_at_ns <= 0:
        raise ShardError(f"pause_at_ns must be positive, got {pause_at_ns}")
    mix = job_preset(preset)  # resolve the name before any worker builds
    compiled_suite(max_variants=1)
    plan = PartitionPlan.build(num_nodes, partitions)
    config = {"mix": mix, "seed": seed}
    with ShardSet(plan, build_jobs_node, config, backend) as shards:
        shards.run(pause_at_ns=pause_at_ns)
        captured = shards.capture()
    return {
        "schema": SCHEMA,
        "kind": "jobs",
        "preset": preset,
        "seed": seed,
        "num_nodes": num_nodes,
        "lookahead_ns": plan.lookahead_ns,
        "pause_at_ns": pause_at_ns,
        "nodes": {str(nid): captured[nid] for nid in sorted(captured)},
    }


def restore_sharded_jobs(
    manifest: Dict[str, Any],
    partitions: int = 1,
    backend: str = "auto",
) -> Dict[str, Any]:
    """Resume a captured sharded-jobs run at any partition count."""
    from repro.shard.experiments import run_sharded_jobs

    if manifest.get("schema") != SCHEMA:
        raise ShardError(
            f"not a shard checkpoint manifest: schema={manifest.get('schema')!r}"
        )
    if manifest.get("kind") != "jobs":
        raise ShardError(f"unsupported checkpoint kind {manifest.get('kind')!r}")
    return run_sharded_jobs(
        preset=manifest["preset"],
        seed=manifest["seed"],
        num_nodes=manifest["num_nodes"],
        partitions=partitions,
        backend=backend,
        lookahead_ns=manifest["lookahead_ns"],
        restore=manifest["nodes"],
    )


def manifest_json(manifest: Dict[str, Any], indent: Optional[int] = None) -> str:
    """Canonical serialized manifest (sorted keys, trailing newline)."""
    return json.dumps(manifest, indent=indent, sort_keys=True) + "\n"
