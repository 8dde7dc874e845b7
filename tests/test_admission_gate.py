"""Differential test of the fair-share admission gate.

``JobManager`` admits tasks without processes of its own: a blocked
driver parks on a list, every slot release queues one plain-code
re-check per parked driver, and the release itself is a callback on the
task's completion signal.  The gate it replaced is kept here as a
reference subclass: every release fired a broadcast ``Signal`` that
resumed every blocked driver, and every task spawned a slot watcher
process.  Both managers run the same seeded job mixes on twin machines.
They must produce the same ``MachineReport`` bytes and fire the same
kernel events: the same count, at the same times and priorities, in the
same order.
"""

from hypothesis import given, seed, settings, strategies as st

from repro.core.runtime import POLICIES, JobManager
from repro.experiments import GRAPH_FUNCTIONS, build_engine
from repro.apps import make_layered_dag
from repro.presets import compiled_suite
from repro.sim import Signal, spawn


class _BroadcastJobManager(JobManager):
    """The broadcast admission gate, as it was before the re-check list."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._wakeup = Signal(self.sim)

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


class _FiredLog:
    """A kernel telemetry hook that keeps ``(time, priority)`` of every
    fired event, and apart from it the callback names and the names of
    the spawned processes."""

    def __init__(self):
        self.fired = []
        self.callbacks = []
        self.spawned = []

    def sim_event_fired(self, event):
        self.fired.append((event.time, event.priority))
        self.callbacks.append(event.callback.__qualname__)

    def process_spawned(self, process):
        self.spawned.append(process.name)


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
    return report.json(), admission, log.fired, log.callbacks, log.spawned


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
    ref = _run(_BroadcastJobManager, preset, slots_per_worker, jobs)
    assert new[0] == ref[0]
    assert new[1] == ref[1]
    assert len(new[2]) == len(ref[2])
    assert new[2] == ref[2]
    # no slot watcher processes: a release is a plain callback
    assert not any(name.startswith("slot.") for name in new[4])


def test_gate_holds_drivers_back():
    """A fixed mix whose drivers do block: one slot per Worker on the
    mini machine, three jobs of one wide layer each."""
    jobs = [
        (0.0, (priority, dataflow, 1, 6, 3 + priority, "greedy-hw", 0))
        for priority, dataflow in ((1, False), (2, True), (1, True))
    ]
    new = _run(JobManager, "mini", 1, jobs)
    ref = _run(_BroadcastJobManager, "mini", 1, jobs)
    assert new[:3] == ref[:3]
    shares = [share for share, *_ in new[1]]
    peaks = [peak for _, _, peak, _ in new[1]]
    assert peaks == shares == [1, 1, 1]
    # every re-check, watcher start and slot release is a plain
    # callback fired where the broadcast gate resumed a process
    rechecks = new[3].count("JobManager._recheck")
    arms = new[3].count("JobManager._arm")
    releases = new[3].count("JobManager._arm.<locals>.release")
    assert rechecks > 5 * len(jobs) and arms == releases == 18
    resumes = ref[3].count("Process._resume")
    assert new[3].count("Process._resume") == resumes - rechecks - arms - releases
