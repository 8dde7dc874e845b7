"""Lifecycle of the process backend's persistent partition workers.

A worker is forked by the first process-backend run that needs it and
parked between runs, so it must never outlive its coordinator, never
build from registry state it inherited at its fork, and never grow from
one run to the next.
"""

import dataclasses
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import repro
from repro.shard import report_json, run_sharded_jobs
from repro.shard.backends import shutdown_workers

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") or not os.path.isdir("/proc/self"),
    reason="process backend needs fork; the checks read /proc",
)


def _live_pids():
    return {child.pid for child in multiprocessing.active_children()}


def _exited(pid):
    """True once ``pid`` has exited (a zombie waiting for init counts)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return True
    return state in ("Z", "X")


def _vm_rss_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise AssertionError(f"no VmRSS for pid {pid}")


def test_workers_exit_when_their_coordinator_dies():
    coordinator = textwrap.dedent(
        """
        import multiprocessing, os
        from repro.shard import run_sharded_jobs

        run_sharded_jobs("mini", seed=0, num_nodes=3, partitions=3,
                         backend="process")
        pids = [child.pid for child in multiprocessing.active_children()]
        print(" ".join(map(str, pids)), flush=True)
        os._exit(0)  # no atexit hook, no shutdown: the workers see EOF
        """
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    # the workers inherit the coordinator's stdout, so read one line and
    # wait for the coordinator instead of reading to EOF
    with subprocess.Popen(
        [sys.executable, "-c", coordinator], env=env, stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        pids = [int(pid) for pid in proc.stdout.readline().split()]
        assert proc.wait(timeout=120) == 0
    assert len(pids) == 2
    deadline = time.monotonic() + 5.0
    while not all(_exited(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    orphans = [pid for pid in pids if not _exited(pid)]
    for pid in orphans:
        os.kill(pid, signal.SIGKILL)
    assert orphans == []


def test_reused_worker_builds_the_spec_registered_now(monkeypatch):
    from repro.presets import JOB_PRESETS

    before = JOB_PRESETS["mini"]
    after = dataclasses.replace(
        before,
        jobs=tuple(
            dataclasses.replace(job, layers=job.layers + 1,
                                graph_seed=job.graph_seed + 7)
            for job in before.jobs
        ),
    )

    def run(backend):
        return report_json(run_sharded_jobs(
            "stale", seed=0, num_nodes=2, partitions=2, backend=backend
        ))

    shutdown_workers()
    monkeypatch.setitem(JOB_PRESETS, "stale", before)
    first = run("process")  # forks the worker while ``before`` is registered
    workers = _live_pids()
    assert len(workers) == 1
    monkeypatch.setitem(JOB_PRESETS, "stale", after)
    inline = run("inline")
    assert inline != first
    assert run("process") == inline
    assert _live_pids() == workers  # built by the worker forked under ``before``


def test_parked_worker_memory_stays_flat():
    # the worker builds two mini nodes per run; keeping each run's
    # runtime instead of freeing it grows it by about 3 MB over runs 5-20
    shutdown_workers()
    rss = []
    for _ in range(20):
        run_sharded_jobs("mini", seed=0, num_nodes=4, partitions=2,
                         backend="process")
        (pid,) = _live_pids()
        rss.append(_vm_rss_mb(pid))
    assert rss[19] - rss[4] < 1.0, rss


def test_closure_builder_is_refused_and_the_worker_kept():
    import pickle

    from repro.shard import NodeCell, PartitionPlan
    from repro.shard.backends import ShardSet
    from repro.sim import Simulator

    def build(node_id, plan, config):
        return NodeCell(node_id, Simulator())

    def run():
        run_sharded_jobs("mini", seed=0, num_nodes=2, partitions=2,
                         backend="process")

    run()
    workers = _live_pids()
    # a builder travels by import path, so a closure cannot be sent; the
    # send fails before any byte reaches the worker, which stays clean
    with pytest.raises((AttributeError, pickle.PicklingError), match="pickle"):
        ShardSet(PartitionPlan.build(2, 2), build, {}, backend="process")
    assert _live_pids() == workers
    run()
    assert _live_pids() == workers
