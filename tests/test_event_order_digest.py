"""Golden digests of the kernel's firing order.

The report digests in ``test_report_digests.py`` pin what a run
computes; these pin the order the event loop fires in.  Each test runs
a seed-0 harness with every kernel event traced (``trace_sim_events``)
and hashes the ``(ts, attrs)`` of each ``sim.event`` -- its timestamp,
callback and priority -- in firing order.  A kernel change that
reorders even one pair of same-instant wake-ups moves the digest while
leaving most reports intact.

A second, callback-free digest hashes only ``(ts, priority)``.  It
pins how many events fire, when and in which order, and survives a
change that swaps which callback runs at a position.

Both ``(ts, attrs)`` digests were captured with the heap-only event
loop, before the same-instant wake-up lane and the tuple heap were
introduced, and re-pinned only where plain callbacks took over
positions at which ``Process._resume`` ran.  ``jobs-mini`` moved when
fair-share admission stopped resuming blocked drivers (its re-checks
and slot releases).  Both moved again when jobs stopped running as
processes: job starts, dataflow task starts and completions, and
serving batch completions are callbacks at the same positions.  Their
event counts and ``(ts, priority)`` digests did not move either time.

A third digest, ``recovery``, hashes the ``(ts, priority)`` stream of
every simulator of the mini checkpoint-restore run in build order: the
baseline, the crashed incarnation, whose domain kill sends tasks
through supervisor retries, and the restored one, whose drivers skip
the checkpointed tasks.  It was captured while jobs still ran as
processes.
"""

import hashlib
import json
from unittest import mock

import pytest

from repro.chaos import run_checkpoint_restore_experiment
from repro.experiments import run_jobs_experiment
from repro.serving import run_serving_experiment
from repro.sim import Simulator
from repro.telemetry import Telemetry, attach_simulator

GOLDEN = {
    "jobs-mini": (
        lambda tel: run_jobs_experiment("mini", seed=0, telemetry=tel),
        583,
        "c251d8b1776ac8ee0f187347d8386f3eba7d64dc0379d39c96acaa419ebcfa40",
        "183a0b064176df8400336b207aa81559941a2ad0264071d54eee394fa1fb1476",
    ),
    "serving-steady": (
        lambda tel: run_serving_experiment("steady", seed=0, telemetry=tel),
        1772,
        "45f1626de4f4f22086960011bdab4b5f7a65e68e661f598da372bfa30368ade9",
        "94e7f038d9ac8bf79f8d6b2e132eb84472f41e6600ad16b904f71ffc974e1e9b",
    ),
}


def _traced_run(run):
    """Fire ``run`` with every kernel event traced; return the event
    count, the digest of ``(ts, attrs)`` and the callback-free digest of
    ``(ts, priority)`` in firing order."""
    hubs = []

    def factory(sim):
        # build_engine hands the hub to the node only; the kernel hook
        # is armed here so every fired event is logged
        hub = Telemetry(sim, event_capacity=None, trace_sim_events=True)
        attach_simulator(hub, sim)
        hubs.append(hub)
        return hub

    run(factory)
    (hub,) = hubs
    full = hashlib.sha256()
    order = hashlib.sha256()
    count = 0
    for ev in hub.events.select(kind="sim.event"):
        full.update(json.dumps([ev.ts, ev.attrs], sort_keys=True).encode() + b"\n")
        order.update(json.dumps([ev.ts, ev.attrs["priority"]]).encode() + b"\n")
        count += 1
    return count, full.hexdigest(), order.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_firing_order_digest(name):
    run, events, expected, _ = GOLDEN[name]
    count, full, _ = _traced_run(run)
    assert (count, full) == (events, expected)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_firing_times_digest(name):
    """The callback-free digest: how many events fire, when, and at
    which priority.  A change that swaps which callback runs at a
    position (a plain-code re-check where a process resumed) keeps it;
    one that adds, drops or moves an event does not."""
    run, events, _, expected = GOLDEN[name]
    count, _, order = _traced_run(run)
    assert (count, order) == (events, expected)


class _OrderLog:
    """A kernel hook that hashes the ``(ts, priority)`` of every fired
    event, as the hub's ``sim.event`` records would be hashed."""

    def __init__(self, digest):
        self.digest = digest
        self.count = 0

    def sim_event_fired(self, event):
        self.digest.update(json.dumps([event.time, event.priority]).encode() + b"\n")
        self.count += 1

    def process_spawned(self, process):
        pass


def test_recovery_firing_times_digest():
    """Retries and a restored job's skip path fire what they fired when
    every job and its retries ran as processes."""
    digest = hashlib.sha256()
    logs = []

    class Recorded(Simulator):
        def __init__(self):
            super().__init__()
            self.telemetry = _OrderLog(digest)
            logs.append(self.telemetry)

    with mock.patch("repro.sim.Simulator", Recorded):
        run_checkpoint_restore_experiment("mini", seed=0)
    assert len(logs) == 3
    assert (sum(log.count for log in logs), digest.hexdigest()) == (
        1242,
        "803cddf3a449b514b0fca50677a04369c625cd567003c348ba8dda5252e22ccb",
    )
