"""tools/event_mix.py counts every fired event once, under its callback,
and names a process wake-up by the generator it is suspended in."""

import importlib.util
from pathlib import Path

from repro.sim import Resource, Simulator, Timeout, spawn

_PATH = Path(__file__).resolve().parent.parent / "tools" / "event_mix.py"
_spec = importlib.util.spec_from_file_location("event_mix", _PATH)
event_mix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(event_mix)


def test_resume_is_named_by_the_innermost_generator():
    sim = Simulator()
    cpu = Resource(sim)
    names = []

    class Hook:
        def sim_event_fired(self, time, callback):
            names.append(event_mix.callback_name(callback))

        def process_spawned(self, process):
            pass

    def job():
        yield from cpu.use(5.0)
        yield Timeout(1.0)

    sim.telemetry = Hook()
    spawn(sim, job())
    sim.run()
    assert names == [
        "Process._resume [test_resume_is_named_by_the_innermost_generator.<locals>.job]",
        "Process._resume [Resource.use]",   # the slot grant
        "Process._resume [Resource.use]",   # the hold's timeout
        "Process._resume [test_resume_is_named_by_the_innermost_generator.<locals>.job]",
    ]


def test_one_jobs_item(capsys):
    counts, sims = event_mix.event_mix("jobs-dag", 0, 1)
    assert sims == 1
    assert counts["JobManager._recheck"] > 0
    assert any(name.startswith("Process._resume [") for name in counts)
    assert event_mix.main(["--items", "1", "--top", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    total = sum(counts.values())
    assert lines[0] == f"jobs-dag, seed 0, items 0-0: {total:,} events on 1 simulators"
    assert len(lines) == 2 + 3
    assert lines[2].endswith(counts.most_common(1)[0][0])


def test_shard_items_are_counted_at_one_partition_only():
    # items 0 and 1 run one 4-node input at P=1 and at P=2; only the
    # P=1 run is counted, so its 4 node simulators are all there is
    counts, sims = event_mix.event_mix("shard-4node", 0, 2)
    assert sims == 4
    assert sum(counts.values()) > 0
