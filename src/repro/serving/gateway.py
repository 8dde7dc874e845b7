"""The serving gateway: arrivals -> admission -> batching -> runtime.

:class:`ServingGateway` wires the serving layer onto one
:class:`~repro.core.runtime.engine.ExecutionEngine`:

::

    arrival processes (one sim process per tenant)
            | offer(request)
            v
    AdmissionController -- token bucket + bounded backlog -> shed verdicts
            | admitted
            v
    DynamicBatcher -- (tenant, function, shape-class) buckets,
            |           max-batch / max-wait flush
            v  dispatch_batch
    JobManager.submit_job -- one single-task NDRange job per batch
            |                (auto_stop off: the engine idles between
            v                 batches instead of tearing down)
    completion callback on the job's done signal
            |
            v
    SLOTracker <- per-request completion latencies
            ^
    Autoscaler -- each period reads ExecutionHistory hotness + SLO state,
                  loads/evicts/replicates accelerator modules

A batch spawns no process.  ``dispatch_batch`` queues one lane slot
that subscribes the completion callback to the batch job's done signal,
and the callback completes every request in the batch.  Those are the
two lane positions at which a per-batch waiter process would start and
be resumed, so the fired event stream is that of such a waiter.

Shutdown is demand-driven: when every tenant's arrival stream has
drained, the batcher force-flushes, and the moment the last admitted
request completes the gateway stops the autoscaler and the engine so the
event queue can drain and ``sim.run()`` returns.

:func:`run_serving_experiment` is the one-call harness the CLI and the
tests share; its :class:`ServingReport` serializes to canonical
sorted-key JSON for determinism diffing.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.apps.taskgraph import Task, TaskGraph
from repro.core.runtime.jobs import JobManager
from repro.serving.admission import AdmissionController
from repro.serving.alerts import BurnRateAlerter, BurnRatePolicy
from repro.serving.arrivals import arrival_process
from repro.serving.batcher import BatchKey, DynamicBatcher
from repro.serving.brownout import BROWNOUT, BrownoutController, BrownoutPolicy
from repro.serving.requests import Request
from repro.serving.slo import SLOTracker
from repro.serving.tracing import RequestTracer, TraceConfig
from repro.serving.autoscaler import Autoscaler
from repro.sim import spawn
from repro.telemetry.tracing import Tracer

if TYPE_CHECKING:
    from repro.presets import ServingScenario


@dataclass
class ServingReport:
    """Everything one serving run did, in canonical-JSON-able form."""

    scenario: str
    seed: int
    horizon_ns: float
    offered: int
    admitted: int
    shed: int
    completed: int
    unrecovered: int
    batches: int
    mean_batch_size: float
    flushes_full: int
    flushes_timeout: int
    admission_verdicts: Dict[str, int]
    tenants: Dict[str, Dict[str, Any]]
    autoscaler: Dict[str, Any]
    machine: Dict[str, Any]
    chaos: Dict[str, Any] = field(default_factory=dict)
    # opt-in observability blocks: empty (and absent from the canonical
    # JSON) unless request tracing / burn-rate alerting / brownout was
    # enabled, so disabled-mode reports stay byte-identical to seed
    tracing: Dict[str, Any] = field(default_factory=dict)
    alerts: Dict[str, Any] = field(default_factory=dict)
    degraded: Dict[str, Any] = field(default_factory=dict)

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "scenario": self.scenario,
            "seed": self.seed,
            "horizon_ns": self.horizon_ns,
            "offered": self.offered,
            "admitted": self.admitted,
            "shed": self.shed,
            "shed_rate": self.shed_rate,
            "completed": self.completed,
            "unrecovered": self.unrecovered,
            "batches": self.batches,
            "mean_batch_size": self.mean_batch_size,
            "flushes_full": self.flushes_full,
            "flushes_timeout": self.flushes_timeout,
            "admission_verdicts": dict(sorted(self.admission_verdicts.items())),
            "tenants": self.tenants,
            "autoscaler": self.autoscaler,
            "machine": self.machine,
            "chaos": self.chaos,
        }
        if self.tracing:
            out["tracing"] = self.tracing
        if self.alerts:
            out["alerts"] = self.alerts
        if self.degraded:
            out["degraded"] = self.degraded
        return out

    def json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON (CI determinism diffing)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


class ServingGateway:
    """One machine's request front door (see module docstring)."""

    def __init__(
        self,
        engine,
        scenario,
        seed: int = 0,
        scenario_name: str = "custom",
        telemetry=None,
        tracing: Optional[TraceConfig] = None,
        alerts: Optional[BurnRatePolicy] = None,
        brownout: Optional[BrownoutPolicy] = None,
        spawn_arrivals: bool = True,
    ) -> None:
        self.engine = engine
        self.sim = engine.node.sim
        self.scenario = scenario
        self.seed = seed
        self.scenario_name = scenario_name
        self.telemetry = telemetry
        # pre-bound emitters for the per-request hot sites: one bound
        # callable per site instead of rebuilding kind/component strings
        # and walking hub attributes on every request.  None when dark,
        # so the disabled cost stays a single identity check.
        if self.telemetry is not None:
            component = f"{engine.node.name}.gateway"
            emitter = self.telemetry.emitter
            self._emit_request = emitter("serve.request", component)
            self._emit_shed = emitter("serve.shed", component)
            self._emit_admit = emitter("serve.admit", component)
            self._emit_batch = emitter("serve.batch", component)
            self._emit_complete = emitter("serve.complete", component)
        else:
            self._emit_request = self._emit_shed = self._emit_admit = None
            self._emit_batch = self._emit_complete = None
        # request tracing is a separate opt-in from the hub: a hub alone
        # must not change the report (byte-identity contract), and traced
        # runs work dark too (spans land on a standalone tracer)
        if tracing is not None:
            span_sink = (
                self.telemetry.tracer
                if self.telemetry is not None
                else Tracer(self.sim)
            )
            self.request_tracer: Optional[RequestTracer] = RequestTracer(
                span_sink, tracing
            )
        else:
            self.request_tracer = None
        self.alerter: Optional[BurnRateAlerter] = (
            BurnRateAlerter(
                alerts,
                telemetry=telemetry,
                component=f"{engine.node.name}.alerts",
            )
            if alerts is not None
            else None
        )
        # auto_stop off: the engine must idle between batches, not tear
        # down the moment the in-flight job count touches zero
        self.manager = JobManager(engine, fair_share=False, auto_stop=False)
        self.admission = AdmissionController(max_backlog=scenario.max_backlog)
        self.slo = SLOTracker()
        self.batcher = DynamicBatcher(
            self, max_batch=scenario.max_batch, max_wait_ns=scenario.max_wait_ns
        )
        self.autoscaler = Autoscaler(
            engine,
            self.slo,
            period_ns=scenario.autoscaler_period_ns,
            scale_up_hotness=scenario.scale_up_hotness,
            max_replicas=scenario.max_replicas,
            cooldown_periods=scenario.cooldown_periods,
            telemetry=telemetry,
        )
        # degraded-mode serving: only a configured policy creates the
        # controller, so un-browned-out runs carry no extra state at all
        if brownout is not None:
            self.brownout: Optional[BrownoutController] = BrownoutController(
                brownout,
                self.sim,
                telemetry=telemetry,
                component=f"{engine.node.name}.brownout",
            )
            self.batcher.wait_stretch = self.brownout.wait_stretch
            self.autoscaler.brownout_source = self.brownout
            if self.alerter is not None:
                self.brownout.listeners.append(self.alerter.note_degraded)
        else:
            self.brownout = None
        self._specs = {t.name: t for t in scenario.tenants}
        for t in scenario.tenants:
            self.slo.configure_tenant(t.name, t.slo_ns)
            self.admission.configure_tenant(
                t.name, t.admit_rate_rps, t.admit_burst
            )
        self._request_ids = itertools.count()
        self._rr_worker = itertools.count()
        self._outstanding = 0
        self._spawn_arrivals = spawn_arrivals
        self._arrivals_open = len(scenario.tenants) if spawn_arrivals else 0
        self._holds = 0
        self._autoscaler_proc = None
        self._started = False
        self._drained = False
        self._end_ns: Optional[float] = None

    # ------------------------------------------------------------------
    # arrival-side interface
    # ------------------------------------------------------------------
    def next_request_id(self) -> int:
        return next(self._request_ids)

    def offer(self, request: Request) -> None:
        """One request from an arrival process: judge, shed or batch."""
        tracer = self.request_tracer
        if tracer is not None:
            request.trace = tracer.context(request)
        self.slo.note_offered(request)
        if self._emit_request is not None:
            self._emit_request(
                tenant=request.tenant,
                function=request.function,
                items=request.items,
                request=request.request_id,
            )
        backlog = self.slo.tenant(request.tenant).outstanding
        # brownout shedding sits *in front of* admission: while degraded,
        # tenants below the priority floor never touch the token buckets,
        # so the surviving capacity is reserved for the interactive tier
        if self.brownout is not None and self.brownout.active:
            spec = self._specs.get(request.tenant)
            if self.brownout.should_shed(spec.priority if spec else 1):
                request.shed_reason = BROWNOUT
                self.slo.note_shed(request, BROWNOUT)
                self.brownout.note_shed()
                if self._emit_shed is not None:
                    self._emit_shed(
                        tenant=request.tenant,
                        reason=BROWNOUT,
                        backlog=backlog,
                        request=request.request_id,
                    )
                if tracer is not None:
                    tracer.on_verdict(request.trace, False, BROWNOUT, backlog)
                    tracer.on_shed(request.trace)
                return
        verdict = self.admission.admit(request, self.sim.now, backlog)
        if tracer is not None:
            tracer.on_verdict(
                request.trace, verdict.accepted, verdict.reason, verdict.backlog
            )
        if not verdict.accepted:
            request.shed_reason = verdict.reason
            self.slo.note_shed(request, verdict.reason)
            if self._emit_shed is not None:
                self._emit_shed(
                    tenant=request.tenant,
                    reason=verdict.reason,
                    backlog=verdict.backlog,
                    request=request.request_id,
                )
            if tracer is not None:
                tracer.on_shed(request.trace)
            return
        request.admitted = True
        self.slo.note_admitted(request)
        self._outstanding += 1
        if self._emit_admit is not None:
            self._emit_admit(
                tenant=request.tenant,
                function=request.function,
                request=request.request_id,
            )
        self.batcher.add(request)

    def arrivals_finished(self, tenant: str) -> None:
        self._arrivals_open -= 1
        if self._arrivals_open == 0:
            self.batcher.flush_all()
            self._maybe_drain()

    # ------------------------------------------------------------------
    # external control-plane interface (the service daemon's seam)
    # ------------------------------------------------------------------
    def hold_open(self) -> None:
        """Keep the gateway from draining while an external injector owns it.

        Each hold counts like one still-running arrival stream; the
        gateway only drains once every hold is released *and* the normal
        drain conditions are met.
        """
        self._holds += 1
        self._arrivals_open += 1

    def release_hold(self) -> None:
        """Release one :meth:`hold_open`; may trigger the normal drain."""
        if self._holds <= 0:
            raise RuntimeError("release_hold() without a matching hold_open()")
        self._holds -= 1
        self.arrivals_finished("<hold>")

    def inject_request(self, tenant: str, function: str, items: int) -> Request:
        """Offer one externally-sourced request at the current sim time.

        This is the daemon's ``submit kind=requests`` path: identical to
        what an arrival process does, so an injected request and a
        scenario-generated one are indistinguishable downstream.
        """
        request = Request(
            request_id=self.next_request_id(),
            tenant=tenant,
            function=function,
            items=items,
            arrived_at=self.sim.now,
        )
        self.offer(request)
        return request

    def quiesced(self) -> bool:
        """No queued/in-flight work and only holds keep the gateway open."""
        if self._drained:
            return True
        return (
            self._outstanding == 0
            and self.batcher.pending() == 0
            and self._arrivals_open == self._holds
        )

    def apply_scenario(self, scenario, scenario_name: str = "custom") -> Dict[str, Any]:
        """Live preset swap: re-point every mutable serving knob.

        Applied between windows by the service daemon.  Token buckets for
        reconfigured tenants restart full (documented reconfigure
        semantics); SLO statistics for existing tenants are preserved --
        only the target changes.  Tenants absent from the new scenario
        keep serving under their old spec until their streams drain.
        """
        applied: Dict[str, Any] = {
            "scenario": scenario_name,
            "max_batch": scenario.max_batch,
            "max_wait_ns": scenario.max_wait_ns,
            "tenants": sorted(t.name for t in scenario.tenants),
        }
        self.batcher.max_batch = scenario.max_batch
        self.batcher.max_wait_ns = scenario.max_wait_ns
        self.admission.max_backlog = scenario.max_backlog
        self.autoscaler.period_ns = scenario.autoscaler_period_ns
        self.autoscaler.scale_up_hotness = scenario.scale_up_hotness
        self.autoscaler.max_replicas = scenario.max_replicas
        self.autoscaler.cooldown_periods = scenario.cooldown_periods
        for t in scenario.tenants:
            self._specs[t.name] = t
            existing = self.slo._tenants.get(t.name)
            if existing is not None:
                existing.slo_ns = t.slo_ns
            else:
                self.slo.configure_tenant(t.name, t.slo_ns)
            self.admission.configure_tenant(t.name, t.admit_rate_rps, t.admit_burst)
        return applied

    # ------------------------------------------------------------------
    # batcher-side interface
    # ------------------------------------------------------------------
    def dispatch_batch(self, key: BatchKey, batch: List[Request]) -> None:
        """One coalesced batch becomes a single-task NDRange job."""
        tenant, function, shape = key
        spec = self._specs.get(tenant)
        items = sum(r.items for r in batch)
        worker = next(self._rr_worker) % len(self.engine.node.workers)
        tracer = self.request_tracer
        tags = None
        if tracer is not None:
            # provenance the engine layer echoes into its events: which
            # requests (= trace ids) this coalesced task carries
            tags = {
                "tenant": tenant,
                "requests": [r.request_id for r in batch],
                "traces": [r.trace.trace_id for r in batch],
            }
        task = Task(
            function=function,
            items=items,
            data_worker=worker,
            affinity_worker=worker,
            input_bytes=items * 4,
            output_bytes=items * 4,
            tags=tags,
        )
        handle = self.manager.submit_job(
            TaskGraph([task]),
            policy=spec.policy if spec else None,
            priority=spec.priority if spec else 1,
        )
        if tracer is not None:
            worker_lane = self.engine.node.worker(worker).name
            for r in batch:
                tracer.on_dispatch(
                    r.trace,
                    job_id=handle.job_id,
                    worker=worker,
                    batch_size=len(batch),
                    batch_items=items,
                    shape=shape,
                    worker_lane=worker_lane,
                )
        if self._emit_batch is not None:
            attrs = dict(
                tenant=tenant,
                function=function,
                shape_class=shape,
                size=len(batch),
                items=items,
                job=handle.job_id,
            )
            if tags is not None:
                attrs["requests"] = tags["requests"]
            self._emit_batch(**attrs)
        # subscribe one lane slot from now, where a waiter process would
        # start, so the done signal's waiters keep their order
        self.sim._soon(self._watch_batch, (handle, batch))

    def _watch_batch(self, entry) -> None:
        handle, batch = entry

        def complete(_handle) -> None:
            self._complete_batch(handle, batch)

        handle.done._subscribe(self.sim, complete)

    def _complete_batch(self, handle, batch: List[Request]) -> None:
        """The batch's job finished: every request in it completes now."""
        now = self.sim.now
        emit_complete = self._emit_complete
        tracer = self.request_tracer
        alerter = self.alerter
        # the batch rode exactly one task; its WorkItem carries execution
        # start time, device and the retry/fallback history
        item = handle.items[0] if handle.items else None
        for request in batch:
            request.completed_at = now
            self.slo.note_completed(request)
            if emit_complete is not None:
                emit_complete(
                    tenant=request.tenant,
                    function=request.function,
                    latency_ns=request.latency_ns,
                    request=request.request_id,
                )
            if tracer is not None or alerter is not None:
                slo_ns = self.slo.tenant(request.tenant).slo_ns
                if tracer is not None:
                    tracer.on_complete(
                        request.trace, item, violated=request.latency_ns > slo_ns
                    )
                if alerter is not None:
                    alerter.observe(
                        now, request.tenant, request.latency_ns, slo_ns
                    )
        self._outstanding -= len(batch)
        self._maybe_drain()

    # ------------------------------------------------------------------
    # chaos-facing degraded-mode hooks (no-ops without a brownout policy)
    # ------------------------------------------------------------------
    def enter_brownout(self, reason: str) -> None:
        """A failure domain went down: degrade until :meth:`exit_brownout`."""
        if self.brownout is not None:
            self.brownout.enter(reason)

    def exit_brownout(self) -> None:
        """The outage healed (or the restore finished): lift one latch."""
        if self.brownout is not None:
            self.brownout.exit()

    def load_snapshot(self) -> Dict[str, Any]:
        """Instantaneous load counters for an external control plane."""
        return {
            "outstanding": self._outstanding,
            "queued": self.batcher.pending(),
            "arrivals_open": self._arrivals_open,
            "drained": self._drained,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _maybe_drain(self) -> None:
        if (
            self._drained
            or self._arrivals_open > 0
            or self._outstanding > 0
            or self.batcher.pending() > 0
        ):
            return
        self._drained = True
        self._end_ns = self.sim.now
        self.autoscaler.stop()
        if self._autoscaler_proc is not None and self._autoscaler_proc.alive:
            self._autoscaler_proc.interrupt("serving drained")
        self.engine.stop()
        if self.telemetry is not None:
            self.telemetry.event(
                "serve.drain",
                f"{self.engine.node.name}.gateway",
                horizon_ns=self._end_ns,
            )

    def start(self) -> None:
        """Spawn the arrival streams and the autoscaler.  Idempotent."""
        if self._started:
            return
        self._started = True
        self.engine.start()
        if self._spawn_arrivals:
            for spec in self.scenario.tenants:
                spawn(
                    self.sim,
                    arrival_process(self, spec, self.seed),
                    name=f"serve.arrivals.{spec.name}",
                )
        self._autoscaler_proc = spawn(
            self.sim, self.autoscaler.run(), name="serve.autoscaler"
        )

    def run(self) -> ServingReport:
        """Serve the whole open-loop scenario, return the report."""
        self.start()
        self.sim.run()
        return self.report()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self) -> ServingReport:
        horizon = self._end_ns if self._end_ns is not None else self.sim.now
        engine = self.engine
        sup = engine.supervisor
        offered = sum(t.offered for t in self.slo.tenants())
        admitted = sum(t.admitted for t in self.slo.tenants())
        completed = sum(t.completed for t in self.slo.tenants())
        shed = sum(t.shed_total for t in self.slo.tenants())
        a = self.autoscaler.stats
        machine = {
            "workers": len(engine.node.workers),
            "tasks": self.batcher.batches_flushed,
            "sw_calls": sum(s.sw_chosen for s in engine.schedulers),
            "hw_calls": sum(s.hw_chosen for s in engine.schedulers),
            "energy_pj": engine.node.ledger.total_pj(),
            "reconfigurations": sum(
                w.reconfig.reconfigurations for w in engine.node.workers
            ),
            "fabric_evictions": sum(
                w.reconfig.evictions for w in engine.node.workers
            ),
            "worker_failures": len(sup.failures) if sup is not None else 0,
            "tasks_retried": sum(rec.tasks_retried for rec in engine.jobs),
            "tasks_unrecovered": sum(
                rec.tasks_unrecovered for rec in engine.jobs
            ),
        }
        return ServingReport(
            scenario=self.scenario_name,
            seed=self.seed,
            horizon_ns=horizon,
            offered=offered,
            admitted=admitted,
            shed=shed,
            completed=completed,
            unrecovered=admitted - completed,
            batches=self.batcher.batches_flushed,
            mean_batch_size=self.batcher.mean_batch_size,
            flushes_full=self.batcher.flushes_full,
            flushes_timeout=self.batcher.flushes_timeout,
            admission_verdicts=dict(self.admission.verdicts),
            tenants=self.slo.summary(horizon),
            autoscaler={
                "evaluations": a.evaluations,
                "loads": a.loads,
                "replicas": a.replicas,
                "evictions": a.evictions,
                "slo_triggers": a.slo_triggers,
                "regions_configured": a.regions_configured,
                "actions": list(a.actions),
            },
            machine=machine,
            tracing=(
                self.request_tracer.report_block()
                if self.request_tracer is not None
                else {}
            ),
            alerts=(
                self.alerter.report_block() if self.alerter is not None else {}
            ),
            degraded=(
                self.brownout.report_block()
                if self.brownout is not None
                else {}
            ),
        )


def build_serving_gateway(
    preset: str = "steady",
    seed: int = 0,
    telemetry=None,
    fault_tolerance=None,
    max_variants: int = 2,
    tracing: Optional[TraceConfig] = None,
    alerts: Optional[BurnRatePolicy] = None,
    brownout: Optional[BrownoutPolicy] = None,
    spawn_arrivals: bool = True,
    *,
    scenario: Optional[ServingScenario] = None,
    node_id: int = 0,
) -> "ServingGateway":
    """Build (but do not run) the serving machine for one preset.

    The only construction path for serving gateways -- batch runs, the
    service daemon's serving epochs, ``inspect`` and each node of a
    sharded run -- over :func:`repro.experiments.build_engine`: same
    build order, same seeds, so a daemon-built gateway is byte-identical
    to a batch one.  ``telemetry`` may be a factory ``sim -> hub``.  A sharded
    run passes node ``node_id``'s slice of the preset as ``scenario``;
    the report still names ``preset``.
    """
    from repro.experiments import build_engine
    from repro.presets import serving_preset

    if scenario is None:
        scenario = serving_preset(preset)
    engine = build_engine(
        scenario.node,
        node_id=node_id,
        telemetry=telemetry,
        fault_tolerance=fault_tolerance,
        max_variants=max_variants,
        use_daemon=False,        # the autoscaler owns the Fig. 5 loop here
    )
    return ServingGateway(
        engine,
        scenario,
        seed=seed,
        scenario_name=preset,
        telemetry=engine.telemetry,
        tracing=tracing,
        alerts=alerts,
        brownout=brownout,
        spawn_arrivals=spawn_arrivals,
    )


def run_serving_experiment(
    preset: str = "steady",
    seed: int = 0,
    telemetry=None,
    fault_tolerance=None,
    faults: Optional[List[Dict[str, Any]]] = None,
    max_variants: int = 2,
    tracing: Optional[TraceConfig] = None,
    alerts: Optional[BurnRatePolicy] = None,
    brownout: Optional[BrownoutPolicy] = None,
) -> ServingReport:
    """Build a machine for ``preset`` and serve it end to end.

    ``faults`` is an optional chaos overlay in the service daemon's
    ``chaos`` command format (see :func:`repro.chaos.plan_faults`):
    ``{"kind": "crash", "worker": w, "at_ns": t, "downtime_ns": d}``
    crashes one Worker (``downtime_ns=None`` makes it permanent); arm
    ``fault_tolerance`` alongside it or admitted requests will be lost.
    ``{"kind": "domain", "domain": name, ...}`` is the correlated
    variant: it takes down every Worker in one failure domain of the
    default tree at once, and (when ``brownout`` is set) drives the
    gateway into degraded mode for the outage window.  ``tracing`` /
    ``alerts`` / ``brownout`` opt the run into request-scoped causal
    tracing, burn-rate alerting and degraded-mode serving (extra report
    blocks; the canonical report without them is byte-identical to a
    plain run).
    """
    gateway = build_serving_gateway(
        preset,
        seed=seed,
        telemetry=telemetry,
        fault_tolerance=fault_tolerance,
        max_variants=max_variants,
        tracing=tracing,
        alerts=alerts,
        brownout=brownout,
    )
    chaos: Dict[str, Any] = {}
    if faults:
        from repro.chaos import ChaosController, chaos_block, plan_faults

        controller = ChaosController(gateway.sim, seed=seed, telemetry=telemetry)
        controller.attach_gateway(gateway)
        chaos = chaos_block(plan_faults(controller, gateway.engine, faults))
        controller.arm()
    report = gateway.run()
    report.chaos = chaos
    return report
