"""Session-wide checks for the test suite."""

import multiprocessing
import os

import pytest


def _child_pids():
    """Every process whose parent is this one, zombies included (Linux)."""
    pids = set()
    task_dir = f"/proc/{os.getpid()}/task"
    if not os.path.isdir(task_dir):
        return pids
    for tid in os.listdir(task_dir):
        try:
            with open(f"{task_dir}/{tid}/children") as f:
                pids.update(int(pid) for pid in f.read().split())
        except OSError:
            pass
    return pids


@pytest.fixture(scope="session", autouse=True)
def no_child_process_outlives_the_session():
    """Shut the persistent shard workers down at the end of the session,
    then fail if any child process is left."""
    yield
    from repro.shard.backends import shutdown_workers

    shutdown_workers()
    assert multiprocessing.active_children() == []
    assert _child_pids() == set()
