"""Checkpoint/restore across partition shapes.

A sharded checkpoint manifest has no partition axis: it is captured at a
global window boundary and keyed purely by node, so a snapshot taken at
4 partitions restores at 1 partition (and vice versa) with canonical
reports that are byte-identical to each other.
"""

import multiprocessing
import os

import pytest

from repro.shard import (
    ShardError,
    capture_sharded_jobs,
    manifest_json,
    report_json,
    restore_sharded_jobs,
)

PAUSE_NS = 400_000.0

#: the 4-partition capture runs on the process backend wherever it can:
#: partition 0's ``capture()`` runs in the coordinator, partitions 1-3
#: answer capture RPCs from forked children
_P4_BACKEND = "process" if hasattr(os, "fork") else "inline"


@pytest.fixture(scope="module")
def manifests():
    m1 = capture_sharded_jobs(
        PAUSE_NS, preset="mini", seed=0, num_nodes=4, partitions=1
    )
    m4 = capture_sharded_jobs(
        PAUSE_NS, preset="mini", seed=0, num_nodes=4, partitions=4,
        backend=_P4_BACKEND,
    )
    return m1, m4


@pytest.mark.skipif(not hasattr(os, "fork"), reason="process backend needs fork")
def test_process_capture_matches_inline(manifests):
    _, m4 = manifests
    inline = capture_sharded_jobs(
        PAUSE_NS, preset="mini", seed=0, num_nodes=4, partitions=4,
        backend="inline",
    )
    assert manifest_json(m4) == manifest_json(inline)
    assert multiprocessing.active_children() == []


def test_manifest_is_partition_invariant(manifests):
    m1, m4 = manifests
    assert manifest_json(m1) == manifest_json(m4)
    assert m1["schema"] == "repro-shard-ckpt/v1"
    assert set(m1["nodes"]) == {"0", "1", "2", "3"}


def test_manifest_captured_mid_run(manifests):
    m1, _ = manifests
    # the pause point is chosen mid-makespan: some progress, not all
    done = sum(
        len(job["completed"])
        for node in m1["nodes"].values()
        for job in node["jobs"]
    )
    total = sum(
        job["tasks"]
        for node in m1["nodes"].values()
        for job in node["jobs"]
    )
    assert 0 < done < total


def test_cross_shape_restore_is_byte_identical(manifests):
    m1, m4 = manifests
    restored_at_1 = restore_sharded_jobs(m4, partitions=1)
    restored_at_4 = restore_sharded_jobs(m1, partitions=4)
    assert report_json(restored_at_1) == report_json(restored_at_4)
    assert restored_at_1["restored"]
    assert restored_at_1["tasks_unrecovered"] == 0


def test_restore_rejects_foreign_manifests():
    with pytest.raises(ShardError):
        restore_sharded_jobs({"schema": "something-else/v1"})
    with pytest.raises(ShardError):
        capture_sharded_jobs(0.0)
