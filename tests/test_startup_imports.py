"""Running a workload loads neither numpy nor networkx.

Every preset network is tree-indexed and routes by LCA walks, and the
task graphs need no numpy app, so a fresh process that imports the
harnesses and runs one of each e2e workload kind must leave both
libraries unloaded: each costs start-up time and resident memory in
every CLI command, e2e worker and daemon.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

_RUN_EACH_WORKLOAD = """
import repro.experiments, repro.serving, repro.chaos, repro.shard
from repro.chaos import run_chaos_experiment
from repro.experiments import run_jobs_experiment
from repro.serving import run_serving_experiment
from repro.shard import run_sharded_jobs
run_jobs_experiment("mini")
run_serving_experiment("steady")
run_chaos_experiment("mini")
run_sharded_jobs("mini", num_nodes=4, partitions=1)
"""


def _modules_after(code):
    """The module names loaded by ``code`` in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    report = "import json, sys; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code + "\n" + report],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return set(json.loads(out.stdout.splitlines()[-1]))


def test_workloads_leave_numpy_and_networkx_unloaded():
    loaded = _modules_after(_RUN_EACH_WORKLOAD)
    assert {"numpy", "networkx"} & loaded == set()


def test_task_graphs_load_no_other_app():
    loaded = _modules_after("from repro.apps.taskgraph import Task")
    assert {m for m in loaded if m.startswith("repro.apps.")} == {"repro.apps.taskgraph"}
