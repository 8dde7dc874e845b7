"""Wiring: attach existing components to a telemetry hub.

Components keep their own cheap internal counters (a cache counts hits
whether or not anyone watches); *attaching* registers pull-collectors
that mirror those counters into the hub's shared registry under stable
dotted names, and arms the few live hooks (link queue gauges, span
emission) that need the hub at event time.

Everything here is duck-typed over the component attributes, so this
module depends only on :mod:`repro.telemetry.hub` -- no import cycles
with the layers it observes.
"""

from __future__ import annotations

from typing import Any

from repro.telemetry.hub import Telemetry

# ----------------------------------------------------------------------
# simulation kernel
# ----------------------------------------------------------------------


def attach_simulator(hub: Telemetry, sim: Any) -> None:
    """Arm the kernel hooks and mirror event-loop counters."""
    sim.telemetry = hub

    def collect(h: Telemetry) -> None:
        h.counter("sim.events_processed").set(float(sim.events_processed))
        h.gauge("sim.pending_events").set(float(sim.pending))

    hub.register_collector(collect, name="sim")


# ----------------------------------------------------------------------
# interconnect
# ----------------------------------------------------------------------


def attach_link(hub: Telemetry, link: Any, prefix: str) -> None:
    """Mirror one link's traffic counters; arm its live queue/latency hooks."""
    link.telemetry = hub
    link.tel_queue = hub.gauge(f"{prefix}.queue_depth")
    link.tel_latency = hub.histogram(f"{prefix}.transfer_ns")

    def collect(h: Telemetry) -> None:
        h.counter(f"{prefix}.bytes").set(float(link.bytes_carried))
        h.counter(f"{prefix}.messages").set(float(link.messages_carried))
        h.counter(f"{prefix}.energy_pj").set(link.energy_pj)

    hub.register_collector(collect, name=prefix)


def _metric_label(raw: str) -> str:
    """Flatten a free-form component name (link names are endpoint-tuple
    reprs like ``('s', 0, 0)<->('w', 0)``) into a clean metric segment:
    alphanumeric runs joined by single underscores."""
    parts: list = []
    word = ""
    for ch in raw:
        if ch.isalnum():
            word += ch
        elif word:
            parts.append(word)
            word = ""
    if word:
        parts.append(word)
    return "_".join(parts) or "link"


def attach_network(hub: Telemetry, network: Any, prefix: str = "interconnect") -> None:
    """Attach a whole network: aggregate counters, per-message latency
    histogram, and every current link."""
    network.telemetry = hub
    network.tel_msg_latency = hub.histogram(f"{prefix}.msg_latency_ns")

    def collect(h: Telemetry) -> None:
        h.counter(f"{prefix}.messages_sent").set(float(network.messages_sent))
        h.counter(f"{prefix}.bytes_sent").set(float(network.bytes_sent))

    hub.register_collector(collect, name=prefix)
    for link in network.links:
        attach_link(hub, link, f"{prefix}.{_metric_label(link.name or 'link')}")


# ----------------------------------------------------------------------
# memory system (cache / DRAM / SMMU counters -> shared registry)
# ----------------------------------------------------------------------


def attach_memory(hub: Telemetry, worker: Any, prefix: str) -> None:
    cache, dram, smmu = worker.cache, worker.dram, worker.smmu

    def collect(h: Telemetry) -> None:
        h.counter(f"{prefix}.cache.hits").set(float(cache.stats.hits))
        h.counter(f"{prefix}.cache.misses").set(float(cache.stats.misses))
        h.counter(f"{prefix}.cache.writebacks").set(float(cache.stats.writebacks))
        h.counter(f"{prefix}.dram.bytes").set(float(dram.bytes_transferred))
        h.counter(f"{prefix}.dram.row_hits").set(float(dram.row_hits))
        h.counter(f"{prefix}.dram.row_misses").set(float(dram.row_misses))
        h.counter(f"{prefix}.smmu.translations").set(float(smmu.stats.translations))
        h.counter(f"{prefix}.smmu.tlb_hits").set(float(smmu.stats.tlb_hits))
        h.counter(f"{prefix}.smmu.tlb_misses").set(float(smmu.stats.tlb_misses))
        h.counter(f"{prefix}.smmu.faults").set(float(smmu.stats.faults))

    hub.register_collector(collect, name=f"{prefix}.memory")


# ----------------------------------------------------------------------
# fabric
# ----------------------------------------------------------------------


def attach_fabric(hub: Telemetry, worker: Any, prefix: str) -> None:
    reconfig = worker.reconfig
    reconfig.telemetry = hub
    reconfig.tel_lane = f"{prefix}.fabric"

    def collect(h: Telemetry) -> None:
        h.counter(f"{prefix}.fabric.reconfigurations").set(
            float(reconfig.reconfigurations)
        )
        h.counter(f"{prefix}.fabric.evictions").set(float(reconfig.evictions))
        h.counter(f"{prefix}.fabric.config_bytes").set(float(reconfig.config_bytes))
        h.counter(f"{prefix}.fabric.config_energy_pj").set(reconfig.config_energy_pj)

    hub.register_collector(collect, name=f"{prefix}.fabric")


# ----------------------------------------------------------------------
# workers / nodes
# ----------------------------------------------------------------------


def attach_worker(hub: Telemetry, worker: Any) -> None:
    prefix = worker.name
    attach_memory(hub, worker, prefix)
    attach_fabric(hub, worker, prefix)

    def collect(h: Telemetry) -> None:
        h.counter(f"{prefix}.sw_calls").set(float(worker.sw_calls))
        h.counter(f"{prefix}.hw_calls").set(float(worker.hw_calls))

    hub.register_collector(collect, name=prefix)


def attach_node(hub: Telemetry, node: Any) -> None:
    """One Compute Node: every Worker plus the intra-node NoC."""
    attach_network(hub, node.network, prefix=f"{node.name}.noc")
    for worker in node.workers:
        attach_worker(hub, worker)


# ----------------------------------------------------------------------
# runtime
# ----------------------------------------------------------------------


def attach_engine(hub: Telemetry, engine: Any, prefix: str = "runtime") -> None:
    """Mirror an ExecutionEngine's queues, tracker and history."""
    queues = engine.queues
    gauges = [hub.gauge(f"{prefix}.queue.w{q.worker_id}.depth") for q in queues]

    def collect(h: Telemetry) -> None:
        for q, g in zip(queues, gauges):
            g.set(float(q.depth))
            h.counter(f"{prefix}.queue.w{q.worker_id}.enqueued").set(float(q.enqueued))
        h.counter(f"{prefix}.status_messages").set(
            float(engine.tracker.status_messages)
        )
        h.counter(f"{prefix}.history_records").set(float(len(engine.history)))
        h.counter(f"{prefix}.sw_chosen").set(
            float(sum(s.sw_chosen for s in engine.schedulers))
        )
        h.counter(f"{prefix}.hw_chosen").set(
            float(sum(s.hw_chosen for s in engine.schedulers))
        )
        # per-tenant dimensions (job 0 = the implicit legacy job; only
        # tenants with activity are mirrored, so single-job runs add
        # nothing to the registry)
        jobs = getattr(engine, "jobs", None)
        if jobs is not None:
            active = 0
            for rec in jobs:
                if rec.tasks_done == 0 and rec.tasks_retried == 0:
                    continue
                active += 1
                jp = f"{prefix}.job.{rec.job_id}"
                h.counter(f"{jp}.tasks_done").set(float(rec.tasks_done))
                h.counter(f"{jp}.sw_calls").set(float(rec.sw_calls))
                h.counter(f"{jp}.hw_calls").set(float(rec.hw_calls))
                h.counter(f"{jp}.energy_pj").set(rec.energy_pj)
                h.counter(f"{jp}.tasks_retried").set(float(rec.tasks_retried))
                h.counter(f"{jp}.tasks_unrecovered").set(
                    float(rec.tasks_unrecovered)
                )
                h.gauge(f"{jp}.placement_locality").set(rec.locality_fraction())
            if active > 1:
                h.gauge(f"{prefix}.jobs.active").set(float(active))

    hub.register_collector(collect, name=prefix)
