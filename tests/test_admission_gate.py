"""Differential test of the callback job drivers and batch completion.

``JobManager`` runs every job without simulation processes: a job
starts one lane slot after submission, its driver is plain code that
keeps its place between completion callbacks, a driver at its fair
share parks on a list that every slot release re-checks, and a serving
batch completes through a callback on its job's done signal.  The
process-based program it replaced is kept here as the reference:

- one driver process per job, and one watcher process per dataflow
  task;
- a broadcast admission gate: every slot release fires a ``Signal``
  that resumes every blocked driver;
- a slot watcher process per task, and a completion waiter process per
  serving batch;
- a fresh policy object per named-policy job, and a share computed by
  scanning every handle ever submitted.

Both programs run the same seeded job mixes and serving scenarios on
twin machines.  They must produce the same report bytes and fire the
same kernel events: the same count, at the same times and priorities,
in the same order, each running the same callback except where the
reference resumed a process.
"""

from dataclasses import replace

from hypothesis import given, seed, settings, strategies as st

from repro.apps import make_layered_dag
from repro.apps.taskgraph import Task, TaskGraph
from repro.chaos import ChaosController, chaos_block, plan_faults
from repro.core.runtime import POLICIES, FaultTolerancePolicy, JobManager
from repro.core.runtime.jobs import JobHandle, JobState
from repro.core.runtime.policy import make_policy
from repro.experiments import GRAPH_FUNCTIONS, build_engine
from repro.presets import compiled_suite, serving_preset
from repro.serving import BrownoutPolicy, ServingGateway, TraceConfig
from repro.sim import AllOf, Signal, spawn


class _ProcessJobManager(JobManager):
    """The process-based job layer, as it was before callback drivers."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._wakeup = Signal(self.sim)

    def _resolve_policy(self, policy):
        if policy is None:
            return self.engine.jobs.default_policy
        if isinstance(policy, str):
            return make_policy(policy, self.engine.policy_config)
        return policy

    def submit_job(self, graph, policy=None, priority=1, dataflow=False,
                   completed=None):
        if priority < 1:
            raise ValueError(f"priority must be >= 1, got {priority}")
        if self._draining:
            raise RuntimeError("JobManager is draining; no new jobs are admitted")
        done_indices = frozenset(completed or ())
        resolved = self._resolve_policy(policy)
        job_id = next(self._ids)
        record = self.engine.jobs.register(job_id, resolved, priority)
        handle = JobHandle(
            job_id=job_id,
            graph=graph,
            policy=resolved,
            priority=priority,
            dataflow=dataflow,
            record=record,
            done=Signal(self.sim),
            submitted_at=self.sim.now,
            completed=done_indices,
        )
        self.handles.append(handle)
        self._active += 1
        self.engine.start()
        spawn(self.sim, self._drive(handle), name=f"job{job_id}")
        return handle

    def _fair_share_of(self, job):
        active = [h for h in self.handles if not h.finished]
        total_priority = sum(h.priority for h in active) or job.priority
        return max(1, (self.total_slots * job.priority) // total_priority)

    def _admit(self, job):
        if job.share is None:
            return
        while job.in_flight >= job.share:
            yield self._wakeup

    def _track(self, job, item):
        if job.share is None:
            return
        job.in_flight += 1
        job.peak_in_flight = max(job.peak_in_flight, job.in_flight)

        def release():
            yield item.done
            job.in_flight -= 1
            self._kick()

        spawn(self.sim, release(), name=f"slot.j{job.job_id}.{item.task.task_id}")

    def _kick(self):
        stale, self._wakeup = self._wakeup, Signal(self.sim)
        stale.succeed(None)

    def _drive(self, job):
        engine = self.engine
        job.started_at = self.sim.now
        job.state = JobState.RUNNING
        if self.fair_share:
            job.share = self._fair_share_of(job)
        driver = self._dataflow_driver if job.dataflow else self._layer_driver
        yield from driver(job)
        job.finished_at = self.sim.now
        job.state = JobState.DONE
        job.report = self._job_report(job)
        if job.on_done is not None:
            job.on_done()
        job.done.succeed(job)
        self._active -= 1
        if self._active == 0 and self.auto_stop:
            engine.stop()

    def _skip(self, job):
        return {t.task_id for i, t in enumerate(job.graph.tasks) if i in job.completed}

    def _layer_driver(self, job):
        engine = self.engine
        skip = self._skip(job)
        completed = 0
        for layer in job.graph.layers():
            items = []
            for task in layer:
                if task.task_id in skip:
                    job.tasks_skipped += 1
                    continue
                yield from self._admit(job)
                item = engine.submit_task(task, job_id=job.job_id)
                self._track(job, item)
                items.append(item)
                job.items.append(item)
            if items:
                yield AllOf([item.done for item in items])
            completed += len(items)
            if engine.retrain_every and engine.selector is not None:
                if completed // engine.retrain_every != (
                    completed - len(items)
                ) // engine.retrain_every:
                    engine.selector.train(engine.history)

    def _dataflow_driver(self, job):
        engine = self.engine
        done_signals = {}
        skip = self._skip(job)

        def watcher(task):
            deps = [done_signals[d] for d in task.deps]
            if deps:
                yield AllOf(deps)
            yield from self._admit(job)
            item = engine.submit_task(task, job_id=job.job_id)
            self._track(job, item)
            job.items.append(item)
            result = yield item.done
            return result

        def skipped(task):
            job.tasks_skipped += 1
            return
            yield  # pragma: no cover - makes this a generator

        for task in job.graph.tasks:
            gen = skipped(task) if task.task_id in skip else watcher(task)
            proc = spawn(self.sim, gen, name=f"dep.j{job.job_id}.{task.task_id}")
            done_signals[task.task_id] = proc.done
        yield AllOf([done_signals[t.task_id] for t in job.graph.tasks])


class _ProcessGateway(ServingGateway):
    """The serving gateway with a completion waiter process per batch,
    on the process-based job layer."""

    def __init__(self, engine, *args, **kwargs):
        super().__init__(engine, *args, **kwargs)
        self.manager = _ProcessJobManager(engine, fair_share=False, auto_stop=False)

    def dispatch_batch(self, key, batch):
        tenant, function, shape = key
        spec = self._specs.get(tenant)
        items = sum(r.items for r in batch)
        worker = next(self._rr_worker) % len(self.engine.node.workers)
        tracer = self.request_tracer
        tags = None
        if tracer is not None:
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
        spawn(
            self.sim,
            self._completion_waiter(handle, batch),
            name=f"serve.batch{handle.job_id}",
        )

    def _completion_waiter(self, handle, batch):
        yield handle.done
        self._complete_batch(handle, batch)


#: the callbacks that now run at lane positions where the reference
#: resumed a process
_REPLACED_RESUMES = frozenset({
    "JobManager._start",
    "JobManager._recheck",
    "JobManager._arm",
    "JobManager._arm.<locals>.release",
    "_DataflowDriver._start_task",
    "Signal.succeed",
    "ServingGateway._watch_batch",
    "ServingGateway._watch_batch.<locals>.complete",
})


class _FiredLog:
    """A kernel telemetry hook that keeps ``(time, priority)`` of every
    fired event, and apart from it the callback names and the names of
    the spawned processes."""

    def __init__(self):
        self.fired = []
        self.callbacks = []
        self.spawned = []

    def sim_event_fired(self, time, callback):
        self.fired.append((time, 0))
        self.callbacks.append(callback.__qualname__)

    def process_spawned(self, process):
        self.spawned.append(process.name)


def _assert_same_program(new, ref):
    """Same report bytes, same fired stream; the new run spawns no
    process per job, dataflow task, task slot or serving batch."""
    (report, fired, callbacks, spawned), (ref_report, ref_fired, ref_callbacks, _) = (
        new, ref,
    )
    assert report == ref_report
    assert len(fired) == len(ref_fired)
    assert fired == ref_fired
    for name, ref_name in zip(callbacks, ref_callbacks):
        if name != ref_name:
            assert (ref_name, name in _REPLACED_RESUMES) == ("Process._resume", True)
    assert not [
        name for name in spawned
        if name.startswith(("job", "dep.", "slot.", "serve.batch"))
    ]


def _run(manager_cls, preset, slots_per_worker, jobs):
    engine = build_engine(preset, compiled=compiled_suite(max_variants=1))
    sim = engine.node.sim
    log = _FiredLog()
    sim.telemetry = log
    manager = manager_cls(engine, slots_per_worker=slots_per_worker)
    workers = len(engine.node.workers)
    handles = []

    def submit(spec):
        priority, dataflow, layers, width, graph_seed, policy, done_mask = spec
        graph = make_layered_dag(
            layers=layers, width=width, num_workers=workers,
            functions=GRAPH_FUNCTIONS, seed=graph_seed,
        )
        completed = frozenset(
            i for i in range(len(graph.tasks)) if done_mask >> i & 1
        )
        handles.append(
            manager.submit_job(
                graph, policy=policy, priority=priority,
                dataflow=dataflow, completed=completed,
            )
        )

    for at, spec in jobs:
        if at:
            sim.schedule(at, submit, spec)
        else:
            submit(spec)
    report = manager.run()
    admission = [
        (h.share, h.in_flight, h.peak_in_flight, h.tasks_skipped) for h in handles
    ]
    return (report.json(), admission), log.fired, log.callbacks, log.spawned


job_specs = st.tuples(
    st.sampled_from((0.0, 0.0, 3_000.0, 40_000.0)),      # submit time (ns)
    st.tuples(
        st.integers(1, 4),                              # priority
        st.booleans(),                                  # dataflow driver
        st.integers(1, 4),                              # layers
        st.integers(1, 8),                              # width
        st.integers(0, 40),                             # graph seed
        st.sampled_from(sorted(POLICIES)),
        st.one_of(st.just(0), st.integers(0, (1 << 18) - 1)),  # completed
    ),
)


@seed(19)
@settings(max_examples=150, deadline=None)
@given(
    preset=st.sampled_from(("mini", "board")),
    slots_per_worker=st.integers(1, 2),
    jobs=st.lists(job_specs, min_size=1, max_size=5),
)
def test_recheck_gate_matches_broadcast_gate(preset, slots_per_worker, jobs):
    new = _run(JobManager, preset, slots_per_worker, jobs)
    ref = _run(_ProcessJobManager, preset, slots_per_worker, jobs)
    _assert_same_program(new, ref)


def test_gate_holds_drivers_back():
    """A fixed mix whose drivers do block: one slot per Worker on the
    mini machine, three jobs of one wide layer each."""
    jobs = [
        (0.0, (priority, dataflow, 1, 6, 3 + priority, "greedy-hw", 0))
        for priority, dataflow in ((1, False), (2, True), (1, True))
    ]
    new = _run(JobManager, "mini", 1, jobs)
    ref = _run(_ProcessJobManager, "mini", 1, jobs)
    _assert_same_program(new, ref)
    shares = [share for share, *_ in new[0][1]]
    peaks = [peak for _, _, peak, _ in new[0][1]]
    assert peaks == shares == [1, 1, 1]
    # every job start, dataflow task start and completion, re-check,
    # slot arm and slot release is a plain callback fired where the
    # reference resumed a process
    callbacks = new[2]
    assert callbacks.count("JobManager._start") == len(jobs)
    assert callbacks.count("_DataflowDriver._start_task") == 12
    assert callbacks.count("JobManager._recheck") > 5 * len(jobs)
    assert callbacks.count("JobManager._arm") == 18
    assert callbacks.count("JobManager._arm.<locals>.release") == 18
    replaced = sum(name in _REPLACED_RESUMES for name in callbacks)
    assert new[2].count("Process._resume") == (
        ref[2].count("Process._resume") - replaced
    )


def _serve(gateway_cls, preset, seed_, rate, traced, fault):
    scenario = serving_preset(preset)
    scenario = replace(scenario, tenants=tuple(
        replace(t, rate_rps=t.rate_rps * rate) for t in scenario.tenants
    ))
    engine = build_engine(
        scenario.node,
        fault_tolerance=FaultTolerancePolicy() if fault else None,
        max_variants=2,
        use_daemon=False,
    )
    log = _FiredLog()
    engine.node.sim.telemetry = log
    gateway = gateway_cls(
        engine,
        scenario,
        seed=seed_,
        scenario_name=preset,
        tracing=TraceConfig(sample_every=1) if traced else None,
        brownout=BrownoutPolicy() if fault else None,
    )
    chaos = {}
    if fault:
        domain, at_ns, downtime_ns = fault
        controller = ChaosController(gateway.sim, seed=seed_)
        controller.attach_gateway(gateway)
        chaos = chaos_block(plan_faults(controller, engine, [{
            "kind": "domain", "domain": domain,
            "at_ns": at_ns, "downtime_ns": downtime_ns,
        }]))
        controller.arm()
    report = gateway.run()
    report.chaos = chaos
    return report.json(), log.fired, log.callbacks, log.spawned


@seed(21)
@settings(max_examples=24, deadline=None)
@given(
    preset=st.sampled_from(("steady", "flash-crowd")),
    seed_=st.integers(0, 9),
    rate=st.sampled_from((0.5, 1.0, 2.0, 4.0)),
    traced=st.booleans(),
    fault=st.one_of(
        st.none(),
        st.tuples(
            st.sampled_from(("blade0", "rack0")),
            st.sampled_from((50_000.0, 150_000.0)),
            st.sampled_from((60_000.0, 120_000.0)),
        ),
    ),
)
def test_batch_completion_callback_matches_waiter_process(
    preset, seed_, rate, traced, fault
):
    new = _serve(ServingGateway, preset, seed_, rate, traced, fault)
    ref = _serve(_ProcessGateway, preset, seed_, rate, traced, fault)
    _assert_same_program(new, ref)
