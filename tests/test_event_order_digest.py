"""Golden digests of the kernel's firing order.

The report digests in ``test_report_digests.py`` pin what a run
computes; these pin the order the event loop fires in.  Each test runs
a seed-0 harness with every kernel event traced (``trace_sim_events``)
and hashes the ``(ts, attrs)`` of each ``sim.event`` -- its timestamp,
callback and priority -- in firing order.  A kernel change that
reorders even one pair of same-instant wake-ups moves the digest while
leaving most reports intact.

Both digests were captured with the heap-only event loop, before the
same-instant wake-up lane and the tuple heap were introduced, so they
show that change fires exactly the events the old kernel did, in the
same order.
"""

import hashlib
import json

import pytest

from repro.experiments import run_jobs_experiment
from repro.serving import run_serving_experiment
from repro.telemetry import Telemetry, attach_simulator

GOLDEN = {
    "jobs-mini": (
        lambda tel: run_jobs_experiment("mini", seed=0, telemetry=tel),
        583,
        "ff9b00f018a9bb5faaa489a116c4e6f1a60d5ec0d83b6f087b63c0408fd914dc",
    ),
    "serving-steady": (
        lambda tel: run_serving_experiment("steady", seed=0, telemetry=tel),
        1772,
        "65f37060575958aabcdb7d93873092a5164cf0e20194f919291d04c7614542dc",
    ),
}


def _traced_run(run):
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
    digest = hashlib.sha256()
    count = 0
    for ev in hub.events.select(kind="sim.event"):
        line = json.dumps([ev.ts, ev.attrs], sort_keys=True)
        digest.update(line.encode() + b"\n")
        count += 1
    return count, digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_firing_order_digest(name):
    run, events, expected = GOLDEN[name]
    assert _traced_run(run) == (events, expected)
