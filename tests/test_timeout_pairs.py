"""Differential test of timeouts and resource holds as heap pairs.

A ``Timeout`` wait and the release step of ``Resource.use_batch`` are
never cancelled, so the kernel queues them through
``Simulator._later`` as bare ``(callback, arg)`` pairs instead of
cancellable :class:`~repro.sim.Event` s.  The reference is a
``Simulator`` whose ``_later`` goes through ``schedule()``: the
``Event`` path every timeout took before.  Both run the same seeded job
mixes (mini and board nodes, layered and dataflow drivers), serving
scenarios (steady and flash-crowd, at x0.5 to x4 their base rates) and
chaos runs (Worker crashes with link faults, and a failure-domain kill
followed by a checkpoint restore).  Every simulator a run builds logs
the ``(time, priority)`` and callback of every event it fires; the two
programs must write the same report bytes and fire the same streams,
event for event.
"""

from dataclasses import replace
from unittest import mock

from hypothesis import given, seed, settings, strategies as st

from repro.chaos import (
    CHAOS_PRESETS,
    ChaosPreset,
    run_chaos_experiment,
    run_checkpoint_restore_experiment,
)
from repro.core.runtime import POLICIES
from repro.experiments import run_jobs_experiment
from repro.presets import (
    JOB_PRESETS,
    SERVING_PRESETS,
    JobMix,
    JobSpec,
    serving_preset,
)
from repro.serving import run_serving_experiment
from repro.sim import Simulator

#: the registry key each generated input is run under
NAME = "pairs-diff"


class _FiredLog:
    """A kernel hook that keeps every fired event's ``(time, priority)``
    and callback name."""

    def __init__(self):
        self.fired = []

    def sim_event_fired(self, event):
        self.fired.append((event.time, event.priority, event.callback.__qualname__))

    def process_spawned(self, process):
        pass


def _recorded(later_through_schedule):
    """A ``Simulator`` subclass that logs what it fires into ``sims``;
    the reference one queues every ``_later`` wait as an ``Event``."""
    sims = []

    class Recorded(Simulator):
        def __init__(self):
            super().__init__()
            self.telemetry = _FiredLog()
            sims.append(self)

        if later_through_schedule:
            def _later(self, delay, callback, arg):
                self.schedule(delay, callback, arg)

    return Recorded, sims


def _run(registry, spec, run, later_through_schedule):
    """Run ``run()`` on ``spec`` registered as :data:`NAME`; return the
    report text and, per simulator built, its fired stream."""
    cls, sims = _recorded(later_through_schedule)
    with mock.patch.dict(registry, {NAME: spec}), mock.patch("repro.sim.Simulator", cls):
        text = run()
    streams = []
    for sim in sims:
        fired = sim.telemetry.fired
        # the hook saw every event the kernel fired
        assert len(fired) == sim.events_processed
        streams.append(fired)
    return text, streams


def _assert_same(registry, spec, run):
    text, streams = _run(registry, spec, run, later_through_schedule=False)
    ref_text, ref_streams = _run(registry, spec, run, later_through_schedule=True)
    assert text == ref_text
    assert [len(s) for s in streams] == [len(s) for s in ref_streams]
    assert streams == ref_streams
    assert sum(len(s) for s in streams) > 0


job_specs = st.builds(
    JobSpec,
    st.sampled_from(sorted(POLICIES)),
    priority=st.integers(1, 4),
    layers=st.integers(1, 4),
    width=st.integers(1, 8),
    graph_seed=st.integers(1, 1 << 16),
    dataflow=st.booleans(),
)


@seed(28)
@settings(max_examples=60, deadline=None)
@given(
    node=st.sampled_from(("mini", "board")),
    jobs=st.lists(job_specs, min_size=1, max_size=4),
    seed_=st.integers(0, 999),
)
def test_jobs_match_event_path(node, jobs, seed_):
    mix = JobMix(node=node, jobs=tuple(jobs))
    _assert_same(
        JOB_PRESETS, mix, lambda: run_jobs_experiment(NAME, seed=seed_).json()
    )


@seed(28)
@settings(max_examples=24, deadline=None)
@given(
    preset=st.sampled_from(("steady", "flash-crowd")),
    rung=st.sampled_from((0.5, 1.0, 2.0, 4.0)),
    seed_=st.integers(0, 999),
)
def test_serving_matches_event_path(preset, rung, seed_):
    scenario = serving_preset(preset)
    scenario = replace(scenario, tenants=tuple(
        replace(t, rate_rps=t.rate_rps * rung) for t in scenario.tenants
    ))
    _assert_same(
        SERVING_PRESETS,
        scenario,
        lambda: run_serving_experiment(NAME, seed=seed_).json(),
    )


chaos_presets = st.builds(
    ChaosPreset,
    node=st.sampled_from(("mini", "board")),
    layers=st.integers(2, 5),
    width=st.integers(4, 10),
    graph_seed=st.integers(1, 1 << 16),
    worker_crashes=st.integers(1, 2),
    transient_fraction=st.sampled_from((0.0, 0.5, 1.0)),
    link_degradations=st.integers(0, 2),
)


@seed(28)
@settings(max_examples=24, deadline=None)
@given(preset=chaos_presets, seed_=st.integers(0, 999))
def test_chaos_matches_event_path(preset, seed_):
    _assert_same(
        CHAOS_PRESETS,
        preset,
        lambda: run_chaos_experiment(NAME, seed=seed_).events_json(),
    )


@seed(28)
@settings(max_examples=16, deadline=None)
@given(
    preset=chaos_presets,
    domain=st.sampled_from(("blade0", "rack0")),
    seed_=st.integers(0, 999),
)
def test_domain_kill_and_restore_match_event_path(preset, domain, seed_):
    _assert_same(
        CHAOS_PRESETS,
        preset,
        lambda: run_checkpoint_restore_experiment(
            NAME, seed=seed_, domain=domain
        ).events_json(),
    )
