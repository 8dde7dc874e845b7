"""The service session: one live machine behind the control protocol.

:class:`ServiceSession` is the synchronous core of the daemon -- the
asyncio shell in :mod:`repro.service.daemon` only moves bytes.  It owns
at most one *workload epoch* at a time (a serving gateway or a job-mix
machine on its own fresh simulator), advances it on a fixed window grid,
and dispatches every protocol command.

Determinism is the whole design:

- **Windowed execution.**  The simulator advances via repeated
  ``sim.run(until=k * window_ns)`` calls.  ``run(until=...)`` fires
  events in exactly the order one uninterrupted ``run()`` would, so
  stepping changes nothing; control commands are only applied *between*
  windows, pinning them to reproducible simulated times.
- **Epochs build batch-identical machines.**  A ``submit`` builds a
  fresh machine through the same construction path the batch harnesses
  use (:func:`repro.experiments.build_engine`, via
  :func:`repro.serving.gateway.build_serving_gateway` and
  :func:`repro.experiments.build_jobs_machine`), with the same seeds and
  compile settings -- so a scripted session's canonical report is
  byte-identical to the equivalent ``run_*_experiment`` call.  The
  epoch's telemetry hub reaches every layer (NoC, memories, fabric,
  runtime), and a hub never changes a report.
- **Snapshot = journal.**  Every state-changing command is journaled
  with the boundary time it was applied at.  A snapshot persists the
  current epoch's journal (plus archived reports verbatim) through PR
  7's :class:`~repro.core.runtime.checkpoint.SnapshotStore`; ``restore``
  replays the journal against the same seeds to the same boundary,
  which reconstructs the machine state exactly.  Continuation after a
  restore is therefore byte-identical to never having stopped.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.core.runtime import FaultTolerancePolicy
from repro.core.runtime.checkpoint import (
    CheckpointManager,
    CheckpointPolicy,
    Snapshot,
    SnapshotStore,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_reply,
    ok_reply,
)

#: the session's snapshot ``workload`` discriminator (PR 7 snapshots use
#: ``chaos-jobs``; restore refuses anything but its own kind)
SESSION_SNAPSHOT_KIND = "service-session"

#: windows a single ``run`` command may pump before reporting no
#: progress -- a backstop against a held-open epoch that cannot drain
MAX_RUN_WINDOWS = 100_000


class ServiceError(Exception):
    """A command that is well-formed but cannot be honoured right now."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


def _require(condition: bool, code: str, message: str) -> None:
    if not condition:
        raise ServiceError(code, message)


# ----------------------------------------------------------------------
# workload epochs
# ----------------------------------------------------------------------


class _ServingEpoch:
    """One serving gateway on its own simulator (one live preset)."""

    kind = "serving"

    def __init__(self, session: "ServiceSession", args: Dict[str, Any]) -> None:
        from repro.serving import BrownoutPolicy, BurnRatePolicy
        from repro.serving.gateway import build_serving_gateway
        from repro.telemetry import Telemetry

        self.preset = str(args.get("preset", session.default_preset))
        self.seed = int(args.get("seed", session.default_seed))
        self.max_variants = int(args.get("max_variants", 2))
        self.arrivals = bool(args.get("arrivals", True))
        hold = bool(args.get("hold_open", False)) or not self.arrivals
        ft = _policy(args, "fault_tolerance", FaultTolerancePolicy)
        self.fault_tolerance = ft is not None
        brownout = _policy(args, "brownout", BrownoutPolicy)
        alerts = _policy(args, "alerts", BurnRatePolicy)
        # the hub rides the epoch's simulator (built inside the builder,
        # hence the factory); reports stay byte-identical with telemetry
        # on or off (the PR 5 contract), so metrics never cost determinism
        factory = (lambda sim: Telemetry(sim)) if session.telemetry else None
        self.gateway = build_serving_gateway(
            self.preset,
            seed=self.seed,
            telemetry=factory,
            fault_tolerance=ft,
            max_variants=self.max_variants,
            alerts=alerts,
            brownout=brownout,
            spawn_arrivals=self.arrivals,
        )
        self.sim = self.gateway.sim
        self.hub = self.gateway.telemetry
        self.manager = self.gateway.manager
        self.node_preset = self.gateway.scenario.node
        self.chaos_controller = None
        self.chaos_faults: List[Dict[str, Any]] = []
        self.gateway.start()
        if hold:
            self.gateway.hold_open()

    @property
    def now(self) -> float:
        return self.sim.now

    def pump_to(self, t: float) -> None:
        self.sim.run(until=t)

    def done(self) -> bool:
        return self.gateway._drained and self.sim.pending == 0

    def quiesced(self) -> bool:
        return self.gateway.quiesced()

    def held(self) -> bool:
        return self.gateway._holds > 0

    def initiate_drain(self) -> None:
        while self.gateway._holds > 0:
            self.gateway.release_hold()

    def finalize_report(self):
        from repro.chaos import chaos_block

        report = self.gateway.report()
        report.chaos = chaos_block(self.chaos_faults)
        return report

    def report_json(self) -> str:
        return self.finalize_report().json(indent=2)

    def status(self) -> Dict[str, Any]:
        load = self.gateway.load_snapshot()
        return {
            "kind": self.kind,
            "preset": self.preset,
            "seed": self.seed,
            "now_ns": self.now,
            "outstanding": load["outstanding"],
            "queued": load["queued"],
            "arrivals_open": load["arrivals_open"],
            "holds": self.gateway._holds,
            "drained": load["drained"],
        }

    def inject(self, args: Dict[str, Any]) -> Dict[str, Any]:
        _require(
            not self.gateway._drained,
            "drained",
            "gateway already drained; submit a new serving epoch",
        )
        tenant = str(args.get("tenant", ""))
        function = str(args.get("function", ""))
        _require(bool(tenant), "bad-args", 'requests submit needs a "tenant"')
        _require(bool(function), "bad-args", 'requests submit needs a "function"')
        items = int(args.get("items", 1))
        count = int(args.get("count", 1))
        _require(count >= 1, "bad-args", "count must be >= 1")
        for _ in range(count):
            self.gateway.inject_request(tenant, function, items)
        return {"injected": count, "at_ns": self.now}

    def reconfigure(self, args: Dict[str, Any]) -> Dict[str, Any]:
        from repro.presets import serving_preset

        applied: Dict[str, Any] = {}
        if "preset" in args:
            name = str(args["preset"])
            scenario = serving_preset(name)
            applied.update(self.gateway.apply_scenario(scenario, scenario_name=name))
        batcher = self.gateway.batcher
        if "max_batch" in args:
            batcher.max_batch = int(args["max_batch"])
            applied["max_batch"] = batcher.max_batch
        if "max_wait_ns" in args:
            batcher.max_wait_ns = float(args["max_wait_ns"])
            applied["max_wait_ns"] = batcher.max_wait_ns
        if "admit" in args:
            for tenant, knobs in sorted(dict(args["admit"]).items()):
                self.gateway.admission.configure_tenant(
                    tenant, float(knobs["rate_rps"]), int(knobs["burst"])
                )
            applied["admit"] = sorted(dict(args["admit"]))
        if "slo_ns" in args:
            for tenant, slo_ns in sorted(dict(args["slo_ns"]).items()):
                state = self.gateway.slo.tenant(tenant)
                state.slo_ns = float(slo_ns)
            applied["slo_ns"] = sorted(dict(args["slo_ns"]))
        auto = self.gateway.autoscaler
        for knob in ("scale_up_hotness", "max_replicas", "cooldown_periods"):
            if knob in args:
                cast = float if knob == "scale_up_hotness" else int
                setattr(auto, knob, cast(args[knob]))
                applied[knob] = getattr(auto, knob)
        if "brownout" in args:
            action = str(args["brownout"])
            _require(
                action in ("enter", "exit"),
                "bad-args",
                'brownout must be "enter" or "exit"',
            )
            _require(
                self.gateway.brownout is not None,
                "no-brownout",
                "epoch was submitted without a brownout policy",
            )
            if action == "enter":
                self.gateway.enter_brownout("reconfigure")
            else:
                self.gateway.exit_brownout()
            applied["brownout"] = action
        _require(bool(applied), "bad-args", "reconfigure had no applicable knobs")
        return applied

    def chaos(self, args: Dict[str, Any]) -> Dict[str, Any]:
        return _apply_chaos(self, args, gateway=self.gateway)


class _JobsEpoch:
    """One job-mix machine on its own simulator (accepts live submits)."""

    kind = "jobs"

    def __init__(self, session: "ServiceSession", args: Dict[str, Any]) -> None:
        from repro.experiments import build_jobs_machine
        from repro.telemetry import Telemetry

        self.preset = str(args.get("preset", "mini"))
        self.seed = int(args.get("seed", session.default_seed))
        self.max_variants = int(args.get("max_variants", 1))
        ft = _policy(args, "fault_tolerance", FaultTolerancePolicy)
        self.fault_tolerance = ft is not None
        submit_mix = args.get("kind", "jobs") == "jobs"
        factory = (lambda sim: Telemetry(sim)) if session.telemetry else None
        self.manager, self.mix = build_jobs_machine(
            self.preset,
            seed=self.seed,
            telemetry=factory,
            fault_tolerance=ft,
            max_variants=self.max_variants,
            submit_mix=submit_mix,
        )
        self.sim = self.manager.sim
        self.hub = self.manager.engine.telemetry
        self.node_preset = self.mix.node
        self.chaos_controller = None
        self.chaos_faults: List[Dict[str, Any]] = []

    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def gateway(self):  # chaos attach point parity with serving epochs
        return None

    def pump_to(self, t: float) -> None:
        self.sim.run(until=t)

    def done(self) -> bool:
        handles = self.manager.handles
        return bool(handles) and all(h.finished for h in handles) and (
            self.sim.pending == 0
        )

    def quiesced(self) -> bool:
        handles = self.manager.handles
        return bool(handles) and all(h.finished for h in handles)

    def held(self) -> bool:
        return False

    def initiate_drain(self) -> None:
        self.manager.drain()

    def report_json(self) -> str:
        return self.manager.collect().json(indent=2)

    def status(self) -> Dict[str, Any]:
        handles = self.manager.handles
        return {
            "kind": self.kind,
            "preset": self.preset,
            "seed": self.seed,
            "now_ns": self.now,
            "jobs": len(handles),
            "jobs_finished": sum(1 for h in handles if h.finished),
            "draining": self.manager.draining,
        }

    def submit_more(self, args: Dict[str, Any]) -> Dict[str, Any]:
        """A ``submit`` onto the live machine: a whole mix or one job."""
        from repro.experiments import layered_graph, submit_job_mix
        from repro.presets import job_preset

        _require(
            not self.manager.draining,
            "draining",
            "JobManager is draining; no new jobs are admitted",
        )
        kind = args.get("kind", "jobs")
        if kind == "jobs":
            mix = job_preset(str(args.get("preset", self.preset)))
            _require(
                mix.node == self.node_preset,
                "preset-mismatch",
                f"mix runs on node preset {mix.node!r}; this machine is "
                f"{self.node_preset!r}",
            )
            handles = submit_job_mix(
                self.manager, mix, int(args.get("seed", self.seed))
            )
            return {"jobs": [h.job_id for h in handles], "at_ns": self.now}
        graph = layered_graph(
            int(args.get("layers", 4)),
            int(args.get("width", 8)),
            len(self.manager.engine.node),
            int(args.get("graph_seed", 1)) + int(args.get("seed", self.seed)),
        )
        handle = self.manager.submit_job(
            graph,
            policy=args.get("policy"),
            priority=int(args.get("priority", 1)),
            dataflow=bool(args.get("dataflow", False)),
        )
        return {"job": handle.job_id, "tasks": len(graph), "at_ns": self.now}

    def reconfigure(self, args: Dict[str, Any]) -> Dict[str, Any]:
        from repro.core.runtime.policy import make_policy

        applied: Dict[str, Any] = {}
        if "policy" in args:
            engine = self.manager.engine
            policy = make_policy(str(args["policy"]), engine.policy_config)
            engine.default_policy = policy
            engine.jobs.default_policy = policy
            applied["policy"] = policy.name
        _require(bool(applied), "bad-args", "reconfigure had no applicable knobs")
        return applied

    def chaos(self, args: Dict[str, Any]) -> Dict[str, Any]:
        return _apply_chaos(self, args, gateway=None)


def _policy(args: Dict[str, Any], key: str, cls):
    """``args[key]`` as a policy: falsy -> off; ``True`` -> defaults;
    an object -> ``cls(**object)``."""
    spec = args.get(key)
    if not spec:
        return None
    if spec is True:
        return cls()
    _require(isinstance(spec, dict), "bad-args", f"{key} must be bool or object")
    return cls(**spec)


def _apply_chaos(epoch, args: Dict[str, Any], gateway=None) -> Dict[str, Any]:
    """Shared online chaos injection for both epoch kinds."""
    from repro.chaos import ChaosController, plan_faults

    _require(
        epoch.fault_tolerance or bool(args.get("force")),
        "no-fault-tolerance",
        "epoch was submitted without fault_tolerance; injected faults "
        'would lose work (pass "force": true to inject anyway)',
    )
    if epoch.chaos_controller is None:
        controller = ChaosController(
            epoch.sim, seed=int(args.get("seed", epoch.seed)), live=True
        )
        if gateway is not None:
            controller.attach_gateway(gateway)
        controller.arm()  # armed empty: every added fault schedules live
        epoch.chaos_controller = controller
    controller = epoch.chaos_controller
    faults = args.get("faults")
    _require(
        isinstance(faults, list) and bool(faults),
        "bad-args",
        'chaos needs a non-empty "faults" list',
    )
    planned = plan_faults(controller, epoch.manager.engine, faults)
    # the report's chaos block covers every fault of the epoch, by the
    # rule run_serving_experiment uses, so scripted sessions stay
    # byte-comparable to the batch harness
    epoch.chaos_faults.extend(planned)
    return {
        "planned": len(planned),
        "faults": planned,
        "armed_at_ns": epoch.now,
    }


# ----------------------------------------------------------------------
# the session
# ----------------------------------------------------------------------


class ServiceSession:
    """One always-on control-plane session over at most one live epoch."""

    def __init__(
        self,
        preset: str = "steady",
        seed: int = 0,
        window_ns: float = 100_000.0,
        telemetry: bool = True,
        snapshot_dir: str = "service-snapshots",
    ) -> None:
        if window_ns <= 0:
            raise ValueError("window_ns must be positive")
        self.default_preset = preset
        self.default_seed = int(seed)
        self.window_ns = float(window_ns)
        self.telemetry = bool(telemetry)
        self.snapshot_dir = snapshot_dir
        self.workload = None
        self.archive: List[Dict[str, Any]] = []
        self.draining = False
        self.closed = False
        self._journal: List[Dict[str, Any]] = []
        self._epoch_count = 0
        self._snap_seq = 0
        self._events_cursor = 0

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def handle_line(self, line) -> bytes:
        """Transport entry point: one request line -> one reply line."""
        request_id = None
        try:
            frame = decode_frame(line)
            request_id = frame.get("id")
            return encode_frame(self.handle(frame))
        except ProtocolError as exc:
            return encode_frame(error_reply(exc.code, exc.message, request_id))

    def handle(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Dispatch one already-decoded command frame."""
        cmd = frame.get("cmd")
        request_id = frame.get("id")
        handler = getattr(self, f"_cmd_{cmd}", None)
        if handler is None:
            return error_reply("unknown-command", f"unknown command {cmd!r}", request_id)
        if self.closed and cmd not in ("ping", "status"):
            return error_reply("closed", "session is shut down", request_id)
        try:
            reply = handler(frame)
        except ServiceError as exc:
            return error_reply(exc.code, exc.message, request_id)
        except ProtocolError as exc:
            return error_reply(exc.code, exc.message, request_id)
        except (KeyError, TypeError, ValueError) as exc:
            return error_reply("bad-args", f"{type(exc).__name__}: {exc}", request_id)
        if request_id is not None:
            reply.setdefault("id", request_id)
        return reply

    # ------------------------------------------------------------------
    # the window grid
    # ------------------------------------------------------------------
    def _next_boundary(self, now: float) -> float:
        k = math.floor(now / self.window_ns + 1e-9) + 1
        return k * self.window_ns

    def _pump_windows(self, windows: int) -> Dict[str, Any]:
        w = self.workload
        _require(w is not None, "no-workload", "no active workload to advance")
        for _ in range(windows):
            if w.done():
                break
            w.pump_to(self._next_boundary(w.now))
        return self._settle()

    def _pump_until_done(self) -> Dict[str, Any]:
        w = self.workload
        _require(w is not None, "no-workload", "no active workload to advance")
        for _ in range(MAX_RUN_WINDOWS):
            if w.done():
                break
            if w.held() and w.quiesced():
                break  # only holds keep it open; inject or drain to proceed
            w.pump_to(self._next_boundary(w.now))
        else:
            raise ServiceError(
                "no-progress",
                f"workload did not finish within {MAX_RUN_WINDOWS} windows",
            )
        return self._settle()

    def _settle(self) -> Dict[str, Any]:
        """Archive a finished epoch; report where the clock landed."""
        w = self.workload
        out: Dict[str, Any] = {"now_ns": w.now}
        if w.done():
            key = self._archive_epoch(w)
            out.update({"state": "idle", "report_key": key})
        elif w.held() and w.quiesced():
            out["state"] = "held"
        else:
            out["state"] = "running"
        return out

    def _archive_epoch(self, w) -> str:
        key = f"{w.kind}:{w.preset}:{w.seed}#{self._epoch_count}"
        self.archive.append(
            {
                "key": key,
                "kind": w.kind,
                "report": w.report_json(),
            }
        )
        self._epoch_count += 1
        self.workload = None
        self._journal = []
        self._events_cursor = 0
        return key

    def _journal_apply(self, frame: Dict[str, Any]) -> None:
        at_ns = self.workload.now if self.workload is not None else 0.0
        entry = {"at_ns": at_ns, "frame": {k: frame[k] for k in sorted(frame) if k != "id"}}
        self._journal.append(entry)

    # ------------------------------------------------------------------
    # commands
    # ------------------------------------------------------------------
    def _cmd_ping(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        return ok_reply(frame.get("id"), pong=True, protocol=PROTOCOL_VERSION)

    def _cmd_status(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        if self.closed:
            state = "closed"
        elif self.draining:
            state = "draining"
        elif self.workload is not None:
            state = "running"
        else:
            state = "idle"
        return ok_reply(
            frame.get("id"),
            state=state,
            protocol=PROTOCOL_VERSION,
            workload=self.workload.status() if self.workload is not None else None,
            reports=[entry["key"] for entry in self.archive],
            journal=len(self._journal),
            window_ns=self.window_ns,
            defaults={
                "preset": self.default_preset,
                "seed": self.default_seed,
                "telemetry": self.telemetry,
            },
        )

    def _cmd_submit(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        _require(not self.draining, "draining", "session is draining; no new work")
        kind = str(frame.get("kind", "serving"))
        if kind == "requests":
            w = self.workload
            _require(
                w is not None and w.kind == "serving",
                "no-workload",
                "requests need an active serving epoch",
            )
            self._journal_apply(frame)
            result = w.inject(frame)
            return ok_reply(frame.get("id"), **result)
        if kind in ("jobs", "job") and self.workload is not None:
            w = self.workload
            _require(
                w.kind == "jobs",
                "busy",
                "a serving epoch is live; drain it before submitting jobs",
            )
            self._journal_apply(frame)
            result = w.submit_more(frame)
            return ok_reply(frame.get("id"), **result)
        _require(
            self.workload is None,
            "busy",
            "an epoch is already live; drain it first",
        )
        _require(
            kind in ("serving", "jobs", "job"),
            "bad-args",
            f"unknown submit kind {kind!r}",
        )
        self._journal_apply(frame)
        if kind == "serving":
            self.workload = _ServingEpoch(self, frame)
        else:
            self.workload = _JobsEpoch(self, frame)
            if kind == "job":
                # the creating frame both builds the machine and carries
                # the first job; submit it through the same path
                self.workload.submit_more(frame)
        return ok_reply(
            frame.get("id"),
            kind=self.workload.kind,
            preset=self.workload.preset,
            seed=self.workload.seed,
            key=f"{self.workload.kind}:{self.workload.preset}:"
            f"{self.workload.seed}#{self._epoch_count}",
        )

    def _cmd_step(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        windows = int(frame.get("windows", 1))
        _require(windows >= 1, "bad-args", "windows must be >= 1")
        return ok_reply(frame.get("id"), **self._pump_windows(windows))

    def _cmd_run(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        return ok_reply(frame.get("id"), **self._pump_until_done())

    def _cmd_report(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        key = frame.get("key")
        if key is None:
            _require(bool(self.archive), "no-reports", "no archived reports yet")
            entry = self.archive[-1]
        else:
            matches = [e for e in self.archive if e["key"] == key]
            _require(bool(matches), "no-reports", f"no archived report {key!r}")
            entry = matches[-1]
        return ok_reply(
            frame.get("id"), key=entry["key"], kind=entry["kind"], report=entry["report"]
        )

    def _cmd_metrics(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        from repro.telemetry import prometheus_text

        w = self.workload
        _require(w is not None, "no-workload", "no live workload to scrape")
        _require(
            w.hub is not None,
            "telemetry-off",
            "session was started with telemetry disabled",
        )
        return ok_reply(frame.get("id"), text=prometheus_text(w.hub), now_ns=w.now)

    def _cmd_events(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        from repro.telemetry import events_tail

        w = self.workload
        _require(w is not None, "no-workload", "no live workload to scrape")
        _require(
            w.hub is not None,
            "telemetry-off",
            "session was started with telemetry disabled",
        )
        cursor = int(frame.get("cursor", self._events_cursor))
        events, next_cursor = events_tail(w.hub, cursor)
        self._events_cursor = next_cursor
        return ok_reply(frame.get("id"), events=events, cursor=next_cursor)

    def _cmd_reconfigure(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        if self.workload is None:
            # no live epoch: retarget the session defaults instead
            applied = {}
            if "preset" in frame:
                self.default_preset = str(frame["preset"])
                applied["preset"] = self.default_preset
            if "seed" in frame:
                self.default_seed = int(frame["seed"])
                applied["seed"] = self.default_seed
            _require(
                bool(applied), "no-workload", "no live workload to reconfigure"
            )
            return ok_reply(frame.get("id"), applied=applied, scope="defaults")
        self._journal_apply(frame)
        applied = self.workload.reconfigure(frame)
        return ok_reply(
            frame.get("id"), applied=applied, scope="live", at_ns=self.workload.now
        )

    def _cmd_chaos(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        w = self.workload
        _require(w is not None, "no-workload", "no live workload to perturb")
        self._journal_apply(frame)
        result = w.chaos(frame)
        return ok_reply(frame.get("id"), **result)

    def _cmd_drain(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        if self.workload is None:
            return ok_reply(frame.get("id"), state="idle", drained=False)
        self.draining = True
        try:
            self.workload.initiate_drain()
            out = self._pump_until_done()
        finally:
            self.draining = False
        return ok_reply(frame.get("id"), drained=True, **out)

    def _cmd_shutdown(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        reply = self._cmd_drain(frame)
        self.closed = True
        reply["closed"] = True
        return reply

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    def _store(self, directory: Optional[str] = None) -> SnapshotStore:
        return SnapshotStore(directory or self.snapshot_dir)

    def _cmd_snapshot(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        w = self.workload
        if w is not None:
            capture = CheckpointManager(
                w.manager, CheckpointPolicy(interval_ns=1.0)
            ).capture()
        else:
            capture = Snapshot(seq=0, taken_at_ns=0.0)
        capture.seq = self._snap_seq
        capture.taken_at_ns = w.now if w is not None else 0.0
        capture.workload = {
            "kind": SESSION_SNAPSHOT_KIND,
            "protocol": PROTOCOL_VERSION,
            "preset": self.default_preset,
            "seed": self.default_seed,
            "window_ns": self.window_ns,
            "telemetry": self.telemetry,
            "epoch_count": self._epoch_count,
            "boundary_ns": w.now if w is not None else None,
            "journal": [dict(e) for e in self._journal],
            "archive": [dict(e) for e in self.archive],
        }
        store = self._store(frame.get("dir"))
        path = store.save(capture)
        self._snap_seq += 1
        return ok_reply(
            frame.get("id"),
            seq=capture.seq,
            path=str(path),
            taken_at_ns=capture.taken_at_ns,
            journal=len(self._journal),
        )

    def _cmd_restore(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        _require(
            self.workload is None and not self.archive and not self._journal,
            "not-idle",
            "restore needs a fresh session (no live epoch, no archive)",
        )
        path = frame.get("path")
        if path is None:
            store = self._store(frame.get("dir"))
            snapshot = store.load_latest()
            _require(
                snapshot is not None,
                "no-snapshot",
                f"no snapshots under {store.root}",
            )
        else:
            snapshot = Snapshot.from_json(Path(path).read_text())
        block = snapshot.workload
        _require(
            block.get("kind") == SESSION_SNAPSHOT_KIND,
            "wrong-kind",
            f"snapshot workload kind {block.get('kind')!r} is not a "
            f"{SESSION_SNAPSHOT_KIND} snapshot",
        )
        self.default_preset = str(block["preset"])
        self.default_seed = int(block["seed"])
        self.window_ns = float(block["window_ns"])
        self.telemetry = bool(block["telemetry"])
        self.archive = [dict(e) for e in block.get("archive", [])]
        self._epoch_count = int(block.get("epoch_count", len(self.archive)))
        # replay the journal: rebuild the epoch's machine from the same
        # seeds and re-apply every command at its recorded boundary.
        # Deterministic simulation makes the result byte-identical to the
        # session that never stopped.
        replayed = 0
        for entry in block.get("journal", []):
            at_ns = float(entry["at_ns"])
            if self.workload is not None and at_ns > self.workload.now:
                self.workload.pump_to(at_ns)
            reply = self.handle(dict(entry["frame"]))
            if not reply.get("ok"):
                raise ServiceError(
                    "replay-failed",
                    f"journal entry {entry['frame'].get('cmd')!r} failed on "
                    f"replay: {reply.get('message')}",
                )
            replayed += 1
        boundary = block.get("boundary_ns")
        if self.workload is not None and boundary is not None:
            if boundary > self.workload.now:
                self.workload.pump_to(float(boundary))
            self._settle()
        return ok_reply(
            frame.get("id"),
            restored=True,
            seq=snapshot.seq,
            replayed=replayed,
            state="running" if self.workload is not None else "idle",
            now_ns=self.workload.now if self.workload is not None else None,
        )
