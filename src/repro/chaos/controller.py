"""The machine-wide fault injector.

A :class:`ChaosController` schedules faults at every layer of the
simulated machine -- crash-stop and transient Worker failures (runtime),
link degradation and outages (interconnect), message loss/duplication
(MPI) -- from either an explicit plan or a seeded-random generator.

Determinism contract: the fault *plan* is a pure function of the chaos
seed and configuration (never of wall-clock or dict order), and every
in-flight random decision (link drops, message losses) draws from a
dedicated per-target RNG seeded from the master seed.  Same seed, same
machine, same workload => identical fault schedule and identical
recovery metrics -- the property the ``chaos`` and ``chaos-seed42``
report digests in ``tests/test_report_digests.py`` pin.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.chaos.domains import (
    TIERS,
    DomainChaosConfig,
    DomainTree,
    FailureDomain,
    build_domain_tree,
)
from repro.interconnect.link import Link, LinkFault
from repro.mpi.comm import Communicator, MessageFaults
from repro.sim import Simulator


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs of the seeded-random fault generator.

    Injection times are drawn uniformly inside ``window_ns`` (start,
    end) -- callers typically derive the window from a baseline run's
    makespan so faults land mid-graph.
    """

    worker_crashes: int = 1
    transient_fraction: float = 0.0     # fraction of crashes that heal
    worker_downtime_ns: float = 300_000.0
    link_degradations: int = 1
    link_drop_rate: float = 0.05
    link_latency_multiplier: float = 4.0
    link_outage_ns: float = 0.0
    link_duration_ns: Optional[float] = None   # None = degraded until the end
    mpi_drop_rate: float = 0.0
    mpi_duplicate_rate: float = 0.0
    window_ns: tuple = (100_000.0, 500_000.0)

    def __post_init__(self) -> None:
        if self.worker_crashes < 0 or self.link_degradations < 0:
            raise ValueError("fault counts must be non-negative")
        if not 0.0 <= self.transient_fraction <= 1.0:
            raise ValueError("transient fraction must be in [0, 1]")
        start, end = self.window_ns
        if start < 0 or end < start:
            raise ValueError(f"invalid injection window {self.window_ns}")


@dataclass
class PlannedFault:
    """One scheduled fault: what, where, when (plus its apply thunk).

    ``apply`` is called with the controller that fires it; a thunk that
    captured the controller instead would tie it into a reference cycle
    through the controller's own plan.
    """

    at_ns: float
    layer: str          # "worker" | "link" | "mpi" | "domain"
    kind: str           # "crash-stop" | "transient" | "degrade" | "restore" | "lossy"
    target: str
    params: Dict[str, Any] = field(default_factory=dict)
    apply: Optional[Callable[["ChaosController"], None]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "at_ns": self.at_ns,
            "layer": self.layer,
            "kind": self.kind,
            "target": self.target,
            "params": {k: self.params[k] for k in sorted(self.params)},
        }


def seeded_node_plan(
    seed: int,
    node_id: int,
    num_workers: int,
    makespan_ns: float,
    window_fraction: tuple = (0.2, 0.6),
    crashes: int = 1,
    transient_fraction: float = 0.0,
    downtime_ns: float = 300_000.0,
) -> List[Dict[str, Any]]:
    """Worker-crash plan for one Compute Node of a sharded machine.

    Pure function of ``(seed, node_id)`` plus the node's shape: the RNG
    stream is ``f"{seed}:shard:{node_id}"``, so the plan is identical at
    any partition count and on any backend.  Mirrors
    :meth:`ChaosController.schedule_random`'s worker draws -- victims
    sampled leaving at least one survivor, times uniform inside the
    window, a per-crash transient draw -- but emits plain dicts so it
    can cross a process boundary.
    """
    rng = random.Random(f"{seed}:shard:{node_id}")
    lo, hi = window_fraction
    count = min(crashes, max(0, num_workers - 1))
    faults: List[Dict[str, Any]] = []
    for worker in rng.sample(range(num_workers), count):
        at_ns = rng.uniform(lo * makespan_ns, hi * makespan_ns)
        transient = rng.random() < transient_fraction
        faults.append(
            {
                "worker": worker,
                "at_ns": at_ns,
                "downtime_ns": downtime_ns if transient else None,
            }
        )
    faults.sort(key=lambda f: (f["at_ns"], f["worker"]))
    return faults


def plan_faults(
    controller: "ChaosController", engine, faults: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Add an explicit fault list to ``controller``; one dict per fault.

    The list is the service daemon's ``chaos`` command format, shared
    by :func:`repro.serving.gateway.run_serving_experiment`: each fault
    has a ``kind`` -- ``"crash"`` (the default) of one ``worker``, or
    ``"domain"``, every Worker under a ``domain`` of the default
    failure-domain tree -- an ``at_ns`` (default: now) and a
    ``downtime_ns`` (``None`` or absent: permanent).  The returned dicts
    are what :func:`chaos_block` reports.
    """
    planned: List[Dict[str, Any]] = []
    for fault in faults:
        kind = fault.get("kind", "crash")
        at_ns = float(fault.get("at_ns", controller.sim.now))
        downtime = fault.get("downtime_ns")
        downtime_ns = float(downtime) if downtime is not None else None
        if kind == "crash":
            worker = int(fault["worker"])
            controller.crash_worker(engine, worker, at_ns, downtime_ns=downtime_ns)
            planned.append(
                {"worker": worker, "at_ns": at_ns, "downtime_ns": downtime_ns}
            )
        elif kind == "domain":
            name = str(fault["domain"])
            tree = build_domain_tree(len(engine.node.workers))
            controller.fail_domain(
                engine, tree.domain(name), at_ns, downtime_ns=downtime_ns
            )
            planned.append(
                {
                    "domain": name,
                    "workers": list(tree.members(name)),
                    "at_ns": at_ns,
                    "downtime_ns": downtime_ns,
                }
            )
        else:
            raise ValueError(f"unknown fault kind {kind!r}")
    return planned


def chaos_block(planned: List[Dict[str, Any]]) -> Dict[str, Any]:
    """A serving report's ``chaos`` block for the faults of one run.

    No faults give ``{}``, a single fault its own dict, several faults
    ``{"faults": [...]}`` in planning order.
    """
    if len(planned) == 1:
        return dict(planned[0])
    return {"faults": [dict(p) for p in planned]} if planned else {}


class ChaosController:
    """Schedules and injects faults across the whole simulated machine."""

    def __init__(
        self, sim: Simulator, seed: int = 0, telemetry=None, live: bool = False
    ) -> None:
        self.sim = sim
        self.seed = seed
        self.telemetry = telemetry
        self.plan: List[PlannedFault] = []
        self.injected: List[Dict[str, Any]] = []
        self._armed = False
        # live controllers (the service daemon's) accept fault additions
        # after arm() and schedule them immediately; batch controllers
        # keep the build-plan-then-arm-once contract
        self.live = live
        # opt-in: a ServingGateway attached here is told to enter/exit
        # brownout around domain outages (degraded-mode serving while
        # the machine restores); None keeps chaos serving-agnostic
        self.gateway = None

    def attach_gateway(self, gateway) -> None:
        """Route domain-outage brownout signals into ``gateway``."""
        self.gateway = gateway

    # ------------------------------------------------------------------
    def _rng(self, stream: str) -> random.Random:
        """A dedicated RNG per (seed, stream) -- independent of call order."""
        return random.Random(f"{self.seed}:{stream}")

    def _record(self, fault: PlannedFault) -> None:
        entry = dict(fault.to_dict(), injected_at=self.sim.now)
        self.injected.append(entry)
        if self.telemetry is not None:
            self.telemetry.event(
                "chaos.inject",
                "chaos",
                layer=fault.layer,
                fault_kind=fault.kind,
                target=fault.target,
                **fault.params,
            )

    def _add(self, fault: PlannedFault) -> PlannedFault:
        if self._armed and not self.live:
            raise RuntimeError("chaos plan already armed; build the plan first")
        self.plan.append(fault)
        if self._armed:
            # online injection: the controller is live (a service-daemon
            # ``chaos`` command arrived mid-run), so schedule immediately
            # instead of waiting for an arm() that already happened
            self._schedule(fault)
        return fault

    def _schedule(self, fault: PlannedFault) -> None:
        def fire(f: PlannedFault) -> None:
            f.apply(self)
            self._record(f)

        self.sim.schedule_at(max(fault.at_ns, self.sim.now), fire, fault)

    # ------------------------------------------------------------------
    # explicit fault scheduling
    # ------------------------------------------------------------------
    def crash_worker(
        self,
        engine,
        worker_id: int,
        at_ns: float,
        downtime_ns: Optional[float] = None,
    ) -> PlannedFault:
        """Crash-stop Worker ``worker_id`` at ``at_ns``; a ``downtime_ns``
        makes the failure transient (the Worker heals and rejoins)."""
        transient = downtime_ns is not None
        fault = self._add(
            PlannedFault(
                at_ns=at_ns,
                layer="worker",
                kind="transient" if transient else "crash-stop",
                target=f"worker{worker_id}",
                params=(
                    {"downtime_ns": downtime_ns} if transient else {}
                ),
                apply=lambda ctl: engine.crash_worker(worker_id, permanent=not transient),
            )
        )
        if transient:
            self._add(
                PlannedFault(
                    at_ns=at_ns + downtime_ns,
                    layer="worker",
                    kind="restore",
                    target=f"worker{worker_id}",
                    apply=lambda ctl: engine.recover_worker(worker_id),
                )
            )
        return fault

    def degrade_link(
        self,
        link: Link,
        at_ns: float,
        drop_rate: float = 0.0,
        latency_multiplier: float = 1.0,
        outage_ns: float = 0.0,
        duration_ns: Optional[float] = None,
    ) -> PlannedFault:
        """Degrade ``link`` at ``at_ns``: lossy (``drop_rate``), slow
        (``latency_multiplier``) and/or hard-down for ``outage_ns``.
        ``duration_ns`` restores the link to healthy afterwards."""
        rng = self._rng(f"link:{link.name}")

        def apply(ctl: ChaosController) -> None:
            fault = LinkFault(
                rng=rng,
                drop_rate=drop_rate,
                latency_multiplier=latency_multiplier,
            )
            if outage_ns > 0:
                fault.down_until_ns = ctl.sim.now + outage_ns
            link.fault = fault

        fault = self._add(
            PlannedFault(
                at_ns=at_ns,
                layer="link",
                kind="degrade",
                target=link.name,
                params={
                    "drop_rate": drop_rate,
                    "latency_multiplier": latency_multiplier,
                    "outage_ns": outage_ns,
                },
                apply=apply,
            )
        )
        if duration_ns is not None:
            def restore(ctl: ChaosController) -> None:
                link.fault = None

            self._add(
                PlannedFault(
                    at_ns=at_ns + duration_ns,
                    layer="link",
                    kind="restore",
                    target=link.name,
                    apply=restore,
                )
            )
        return fault

    def lose_messages(
        self,
        comm: Communicator,
        at_ns: float,
        drop_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        duration_ns: Optional[float] = None,
    ) -> PlannedFault:
        """Arm message loss/duplication on an MPI communicator."""
        rng = self._rng(f"mpi:{comm.name}")

        def apply(ctl: ChaosController) -> None:
            comm.faults = MessageFaults(
                rng=rng, drop_rate=drop_rate, duplicate_rate=duplicate_rate
            )

        fault = self._add(
            PlannedFault(
                at_ns=at_ns,
                layer="mpi",
                kind="lossy",
                target=comm.name,
                params={"drop_rate": drop_rate, "duplicate_rate": duplicate_rate},
                apply=apply,
            )
        )
        if duration_ns is not None:
            def restore(ctl: ChaosController) -> None:
                comm.faults = None

            self._add(
                PlannedFault(
                    at_ns=at_ns + duration_ns,
                    layer="mpi",
                    kind="restore",
                    target=comm.name,
                    apply=restore,
                )
            )
        return fault

    def fail_domain(
        self,
        engine,
        domain: FailureDomain,
        at_ns: float,
        downtime_ns: Optional[float] = None,
    ) -> PlannedFault:
        """One correlated fault: every Worker under ``domain`` crashes at
        ``at_ns`` in a single event (shared blade/rack/PSU going down).
        ``downtime_ns`` makes the outage transient -- the whole subtree
        heals and rejoins together.  An attached gateway (see
        :meth:`attach_gateway`) is browned out for the outage."""
        transient = downtime_ns is not None
        workers = list(domain.workers)
        params: Dict[str, Any] = {"tier": domain.tier, "workers": workers}
        if transient:
            params["downtime_ns"] = downtime_ns

        def apply(ctl: ChaosController) -> None:
            if ctl.gateway is not None:
                ctl.gateway.enter_brownout(f"domain:{domain.name}")
            for w in workers:
                engine.crash_worker(w, permanent=not transient)

        fault = self._add(
            PlannedFault(
                at_ns=at_ns,
                layer="domain",
                kind="transient" if transient else "crash-stop",
                target=domain.name,
                params=params,
                apply=apply,
            )
        )
        if transient:
            def restore(ctl: ChaosController) -> None:
                for w in workers:
                    engine.recover_worker(w)
                if ctl.gateway is not None:
                    ctl.gateway.exit_brownout()

            self._add(
                PlannedFault(
                    at_ns=at_ns + downtime_ns,
                    layer="domain",
                    kind="restore",
                    target=domain.name,
                    params={"tier": domain.tier, "workers": workers},
                    apply=restore,
                )
            )
        return fault

    # ------------------------------------------------------------------
    # seeded-random plan generation
    # ------------------------------------------------------------------
    def schedule_domain_random(
        self,
        engine,
        tree: DomainTree,
        config: DomainChaosConfig = DomainChaosConfig(),
    ) -> List[PlannedFault]:
        """A seeded correlated-failure plan over an enclosure tree.

        Each tier with an MTBF draws one exponential time-to-failure per
        domain from a dedicated ``domain:<name>`` RNG stream; draws
        landing inside the window become faults, earliest-first up to
        ``config.max_failures``.  Never takes the *whole* machine down
        permanently: with no downtime configured, candidate faults that
        would leave zero live Workers are dropped from the plan."""
        start, end = config.window_ns
        candidates: List[tuple] = []
        for tier in TIERS:
            mtbf = config.mtbf_for(tier)
            if mtbf is None:
                continue
            for domain in tree.domains(tier):
                rng = self._rng(f"domain:{domain.name}")
                at = start + rng.expovariate(1.0 / mtbf)
                if at <= end:
                    candidates.append((at, TIERS.index(tier), domain.name, domain))
        candidates.sort(key=lambda c: (c[0], c[1], c[2]))
        planned: List[PlannedFault] = []
        dead: set = set()
        num_workers = len(engine.schedulers)
        for at, _, _, domain in candidates[: config.max_failures]:
            if config.downtime_ns is None:
                if len(dead | set(domain.workers)) >= num_workers:
                    continue            # would kill the last survivor for good
                dead |= set(domain.workers)
            planned.append(
                self.fail_domain(
                    engine, domain, at_ns=at, downtime_ns=config.downtime_ns
                )
            )
        return planned

    def schedule_random(
        self,
        engine,
        links: List[Link],
        comm: Optional[Communicator] = None,
        config: ChaosConfig = ChaosConfig(),
    ) -> List[PlannedFault]:
        """Build a random-but-seeded fault plan over one engine's Workers,
        a set of links, and (optionally) an MPI communicator."""
        rng = self._rng("schedule")
        start, end = config.window_ns
        planned: List[PlannedFault] = []

        num_workers = len(engine.schedulers)
        crashes = min(config.worker_crashes, max(0, num_workers - 1))
        victims = rng.sample(range(num_workers), crashes) if crashes else []
        for worker_id in victims:
            at = rng.uniform(start, end)
            transient = rng.random() < config.transient_fraction
            planned.append(
                self.crash_worker(
                    engine,
                    worker_id,
                    at_ns=at,
                    downtime_ns=config.worker_downtime_ns if transient else None,
                )
            )

        degradations = min(config.link_degradations, len(links))
        chosen = rng.sample(range(len(links)), degradations) if degradations else []
        for index in chosen:
            at = rng.uniform(start, end)
            planned.append(
                self.degrade_link(
                    links[index],
                    at_ns=at,
                    drop_rate=config.link_drop_rate,
                    latency_multiplier=config.link_latency_multiplier,
                    outage_ns=config.link_outage_ns,
                    duration_ns=config.link_duration_ns,
                )
            )

        if comm is not None and (config.mpi_drop_rate or config.mpi_duplicate_rate):
            planned.append(
                self.lose_messages(
                    comm,
                    at_ns=rng.uniform(start, end),
                    drop_rate=config.mpi_drop_rate,
                    duplicate_rate=config.mpi_duplicate_rate,
                )
            )
        return planned

    # ------------------------------------------------------------------
    # arming and reporting
    # ------------------------------------------------------------------
    def arm(self) -> int:
        """Schedule every planned fault on the simulator.  Idempotent-safe:
        a plan can only be armed once.  A ``live=True`` controller stays
        open after arming: later fault additions schedule themselves
        immediately, which is how the service daemon injects plans
        mid-run; batch controllers keep refusing post-arm additions."""
        if self._armed:
            raise RuntimeError("chaos plan already armed")
        self._armed = True
        self.plan.sort(key=lambda f: (f.at_ns, f.layer, f.kind, f.target))
        for fault in self.plan:
            self._schedule(fault)
        return len(self.plan)

    def plan_json(self, indent: Optional[int] = None) -> str:
        """The fault schedule as canonical JSON (determinism diffing)."""
        return json.dumps(
            [f.to_dict() for f in sorted(
                self.plan, key=lambda f: (f.at_ns, f.layer, f.kind, f.target)
            )],
            indent=indent,
            sort_keys=True,
        )

    @property
    def faults_planned(self) -> int:
        return len(self.plan)

    @property
    def faults_injected(self) -> int:
        return len(self.injected)
