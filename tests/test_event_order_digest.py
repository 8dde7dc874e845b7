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
introduced.  ``serving-steady`` still holds that value.  ``jobs-mini``
was re-pinned once, when fair-share admission stopped resuming blocked
drivers: its re-checks and slot releases now run as plain callbacks
where ``Process._resume`` ran, at the same positions, so its
``(ts, priority)`` digest (captured before that change) did not move.
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
        "220e2647f8334f9a5ec3c86e747acf6d81958602850e963eb47fddba89f8bf97",
        "183a0b064176df8400336b207aa81559941a2ad0264071d54eee394fa1fb1476",
    ),
    "serving-steady": (
        lambda tel: run_serving_experiment("steady", seed=0, telemetry=tel),
        1772,
        "65f37060575958aabcdb7d93873092a5164cf0e20194f919291d04c7614542dc",
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
