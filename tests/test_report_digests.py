"""Golden digests of the seed-0 canonical reports of every harness.

The relative checks elsewhere (telemetry on/off, P=1 vs P=2, daemon vs
batch) compare two runs of the same code, so a change that shifts both
sides alike passes them.  These digests pin the absolute bytes: a
refactor of the construction or run paths must leave every canonical
report exactly as it was.  A digest changes only with a deliberate,
documented behaviour change.
"""

import hashlib
import tempfile
from pathlib import Path

import pytest

from repro.chaos import (
    run_chaos_experiment,
    run_checkpoint_restore_experiment,
    run_multi_job_chaos_experiment,
)
from repro.experiments import run_jobs_experiment
from repro.serving import BurnRatePolicy, TraceConfig, run_serving_experiment
from repro.shard import (
    capture_sharded_jobs,
    manifest_json,
    report_json,
    restore_sharded_jobs,
    run_sharded_chaos,
    run_sharded_jobs,
    run_sharded_serving,
)


def _shard_manifest():
    # the pause point tests/test_shard_checkpoint.py captures at
    return capture_sharded_jobs(400_000.0, "mini", seed=0, num_nodes=4)


def _checkpoint_files():
    """Every ``ckpt-*.json`` the kill-and-restore experiment persists."""
    with tempfile.TemporaryDirectory() as tmp:
        run_checkpoint_restore_experiment("mini", seed=0, store_dir=tmp)
        return "".join(p.read_text() for p in sorted(Path(tmp).glob("ckpt-*.json")))


GOLDEN = {
    "jobs": (
        lambda: run_jobs_experiment("mini", seed=0).json(),
        "9d931d8c9aeacb5d00ef562388f1e522c3f13aa3cc40cbd82baaa76d625e31d1",
    ),
    "serving": (
        lambda: run_serving_experiment("steady", seed=0).json(),
        "aed66455b95e57d6dbdc52a8d5ac3a5e70cff4e5d6d6e7f9411e231054846b33",
    ),
    "serving-flash-crowd": (
        lambda: run_serving_experiment("flash-crowd", seed=7).json(),
        "27d73a2a6f72ea1992ab45372138a8bd53968c96838ed5722c51893f6c4e0861",
    ),
    "serving-traced": (
        lambda: run_serving_experiment(
            "steady",
            seed=0,
            tracing=TraceConfig(sample_every=1),
            alerts=BurnRatePolicy(slo_scale=0.1),
        ).json(),
        "a14e5d78f19195ef48212c9d662f357a4f2b3642fecda6210e20d76ae53896e6",
    ),
    "chaos": (
        lambda: run_chaos_experiment("mini", seed=0).events_json(),
        "279c93f9d54948b3006aa48da9860ff40a6525d94b55d5dbdc8f4abf0aec8f04",
    ),
    "multi-job-chaos": (
        lambda: run_multi_job_chaos_experiment("mini", seed=0).events_json(),
        "2b629229ab74714dca860ff83a5b4ab8ec7d713e6e40d186a1f16823adde2929",
    ),
    "checkpoint": (
        lambda: run_checkpoint_restore_experiment("mini", seed=0).events_json(),
        "197f212f39be9a723c66ee9c36692bc7a093070a553e6a5b45e0b1693d9be403",
    ),
    "sharded-jobs": (
        lambda: report_json(run_sharded_jobs("mini", seed=0, num_nodes=2)),
        "458cd377e1d972762754e92e363940bc35cfa2bab0454f03eba1949bd902fbc6",
    ),
    "sharded-serving": (
        lambda: report_json(run_sharded_serving("steady", seed=0, num_nodes=2)),
        "a2a16bc5fea414a55121a83da7bf47e61f6174f11ec3c12b4fef9f1a8b9c0be0",
    ),
    "shard-manifest": (
        lambda: manifest_json(_shard_manifest()),
        "2f3d07c00fee07d38dfa9e4ade13ba15eb72435eb08f75f77fc8b3751c8ac89c",
    ),
    "shard-restore": (
        lambda: report_json(restore_sharded_jobs(_shard_manifest())),
        "e9458726e4b6b5e7c3eba6e24f36e85bf143189473fbb95821557243266ad7d2",
    ),
    "checkpoint-files": (
        _checkpoint_files,
        "888ed2e2d535fb72980a43624495b769b82546d1da578b9aa9f5ef924bb3ff34",
    ),
    "sharded-chaos": (
        lambda: report_json(run_sharded_chaos("mini", seed=0, num_nodes=2)),
        "9605008bb15f8e02fbd01349f11e6783558b92457ee54ef6002290fd44ede60a",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_canonical_report_digest(name):
    run, expected = GOLDEN[name]
    digest = hashlib.sha256(run().encode("utf-8")).hexdigest()
    assert digest == expected, name
