"""Differential test of the kernel's firing order.

The kernel keeps two queues -- a tuple heap and a FIFO lane for the
``(callback, arg)`` pairs due at the current instant -- and merges them
on every pop.  This test runs seeded random programs against the kernel
and against a reference that keeps one flat list and always fires the
entry with the smallest ``(time, seq)``.  Both must fire the same events
in the same order and agree on ``now``, ``pending`` and
``events_processed`` after every operation.

Process wake-ups (``_soon``) go straight to the lane, so a second
program family concentrates on it: wake-ups mixed with zero-delay
``schedule()`` pairs, short ``max_events`` cuts, ``peek``/``step``
between runs, and ``run_window`` horizons.

Timeouts and resource holds are ``schedule()`` pairs on the heap.  A
third family mixes them -- runs of pairs at one time, ``Timeout`` waits
(some interrupted and re-armed) and ``use_batch`` holds -- with plain
``schedule``/``schedule_at`` pairs at the same time.  A kernel hook logs
the ``(time, callback)`` of every fired entry; its reference hands out
the same values.
"""

from hypothesis import given, seed, settings, strategies as st

from repro.sim import (
    Interrupt,
    Resource,
    Signal,
    SimulationError,
    Simulator,
    Timeout,
    spawn,
)
from repro.telemetry import Telemetry, attach_simulator

#: few distinct delays, so same-instant collisions are the common case
DELAYS = (0.0, 0.0, 0.5, 1.0, 2.0)
#: cap on events scheduled from inside callbacks, per program
REACTION_BUDGET = 400


class _RefEvent:
    __slots__ = ("key", "callback", "arg")

    def __init__(self, key, callback, arg):
        self.key = key
        self.callback = callback
        self.arg = arg


class _LaneView:
    """``Signal.succeed`` appends wake-ups to ``sim._lane`` directly."""

    def __init__(self, kernel):
        self.kernel = kernel

    def append(self, pair):
        self.kernel._soon(*pair)


class ReferenceKernel:
    """One unsorted list; every pop scans for the smallest key."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self.telemetry = None
        self._entries = []
        self._seq = 0
        self._lane = _LaneView(self)
        self._live = {}  # unfinished processes, kept by Process itself

    def schedule(self, delay, callback, arg=None):
        if delay < 0:
            raise SimulationError("past")
        self.schedule_at(self.now + delay, callback, arg)

    def schedule_at(self, time, callback, arg=None):
        if time < self.now:
            raise SimulationError("past")
        self._entries.append(_RefEvent((time, self._seq), callback, arg))
        self._seq += 1

    def _soon(self, callback, arg):
        self.schedule(0.0, callback, arg)

    def _next(self):
        return min(self._entries, key=lambda e: e.key, default=None)

    def _fire(self, event):
        self._entries.remove(event)
        self.now = event.key[0]
        self.events_processed += 1
        if self.telemetry is not None:
            self.telemetry.sim_event_fired(self.now, event.callback)
        event.callback(event.arg)

    @property
    def pending(self):
        return len(self._entries)

    def peek(self):
        event = self._next()
        return None if event is None else event.key[0]

    def step(self):
        event = self._next()
        if event is None:
            return False
        self._fire(event)
        return True

    def run(self, until=None, max_events=None):
        fired = 0
        horizon = until
        while True:
            event = self._next()
            if event is None or (until is not None and event.key[0] > until):
                break
            if max_events is not None and fired >= max_events:
                # the clock may not pass a pending event
                horizon = event.key[0]
                break
            self._fire(event)
            fired += 1
        if until is not None and horizon > self.now:
            self.now = horizon

    def run_window(self, horizon):
        fired = 0
        while True:
            event = self._next()
            if event is None or event.key[0] >= horizon:
                return fired
            self._fire(event)
            fired += 1

    def warp_to(self, time):
        if time < self.now or self._next() is not None:
            raise SimulationError("warp")
        self.now = time


class ProgramRunner:
    """Runs one program on a kernel and logs everything observable."""

    def __init__(self, kernel, reactions):
        self.kernel = kernel
        self.reactions = reactions
        self.scheduled = 0
        self.log = []
        self.budget = REACTION_BUDGET

    def _schedule(self, op, *args):
        eid = self.scheduled
        k = self.kernel
        if op == "sched":
            k.schedule(args[0], self._fired, eid)
        elif op == "at":
            k.schedule_at(k.now + args[0], self._fired, eid)
        else:  # "soon": the process wake-up path
            k._soon(self._fired, eid)
        self.scheduled += 1

    def _fired(self, eid):
        self.log.append(("fire", eid, self.kernel.now))
        for op, *args in self.reactions[eid % len(self.reactions)]:
            if self.budget <= 0:
                return
            self.budget -= 1
            self._schedule(op, *args)

    def apply(self, op, *args):
        k = self.kernel
        try:
            if op in ("sched", "at", "soon"):
                self._schedule(op, *args)
            elif op == "mixed":
                # a same-instant run of wake-ups and zero-delay pairs;
                # pattern bit 1 = wake-up, 0 = schedule(0.0, ...)
                for wakeup in args[0]:
                    if wakeup:
                        self._schedule("soon")
                    else:
                        self._schedule("sched", 0.0)
            elif op == "run":
                until, max_events = args
                k.run(
                    until=None if until is None else k.now + until,
                    max_events=max_events,
                )
            elif op == "step":
                self.log.append(("step", k.step()))
            elif op == "peek":
                self.log.append(("peek", k.peek()))
            elif op == "window":
                self.log.append(("window", k.run_window(k.now + args[0])))
            elif op == "warp":
                k.warp_to(k.now + args[0])
        except SimulationError:
            self.log.append(("error", op))
        self.log.append((op, k.now, k.pending, k.events_processed))


delays = st.sampled_from(DELAYS)
schedule_ops = st.one_of(
    st.tuples(st.just("sched"), delays),
    st.tuples(st.just("at"), st.sampled_from((0.0, 0.0, 1.0))),
    st.tuples(st.just("soon")),
)
reaction = st.lists(schedule_ops, max_size=3)
#: window offsets include ``inf``: the sharded engine's last window is
#: unbounded, and ``run_window(inf)`` must fire everything
offsets = st.sampled_from((0.0, 0.5, 1.0, 2.0, 5.0))
window_offsets = st.sampled_from((0.0, 0.5, 1.0, 2.0, 5.0, float("inf")))
top_ops = st.one_of(
    schedule_ops,
    st.tuples(
        st.just("run"),
        st.one_of(st.none(), offsets),
        st.one_of(st.none(), st.integers(0, 12)),
    ),
    st.tuples(st.just("step")),
    st.tuples(st.just("peek")),
    st.tuples(st.just("window"), window_offsets),
    st.tuples(st.just("warp"), offsets),
)


#: lane-heavy programs: mostly wake-ups and zero-delay pairs, with
#: short run cuts so ``max_events`` often stops on a wake-up
lane_schedule_ops = st.one_of(
    st.tuples(st.just("soon")),
    st.tuples(st.just("soon")),
    st.tuples(st.just("sched"), st.just(0.0)),
    st.tuples(st.just("sched"), delays),
)
lane_reaction = st.lists(lane_schedule_ops, max_size=3)
lane_ops = st.one_of(
    lane_schedule_ops,
    st.tuples(st.just("mixed"), st.lists(st.booleans(), min_size=1, max_size=12)),
    st.tuples(
        st.just("run"),
        st.one_of(st.none(), st.sampled_from((0.0, 0.5, 1.0))),
        st.integers(0, 4),
    ),
    st.tuples(st.just("run"), st.none(), st.none()),
    st.tuples(st.just("step")),
    st.tuples(st.just("peek")),
    st.tuples(st.just("window"), st.sampled_from((0.0, 0.5, 1.0, 2.0, float("inf")))),
)


def _execute(kernel, reactions, program):
    runner = ProgramRunner(kernel, reactions)
    for op in program:
        runner.apply(*op)
    runner.apply("run", None, None)
    return runner.log


@seed(14)
@settings(max_examples=300, deadline=None)
@given(
    reactions=st.lists(reaction, min_size=1, max_size=8),
    program=st.lists(top_ops, min_size=10, max_size=60),
)
def test_kernel_matches_sorted_reference(reactions, program):
    got = _execute(Simulator(), reactions, program)
    want = _execute(ReferenceKernel(), reactions, program)
    assert got == want


@seed(18)
@settings(max_examples=300, deadline=None)
@given(
    reactions=st.lists(lane_reaction, min_size=1, max_size=6),
    program=st.lists(lane_ops, min_size=10, max_size=60),
)
def test_wakeup_pairs_match_sorted_reference(reactions, program):
    got = _execute(Simulator(), reactions, program)
    want = _execute(ReferenceKernel(), reactions, program)
    assert got == want


def test_max_events_cut_on_a_wakeup_leaves_the_rest_queued():
    sim = Simulator()
    runner = ProgramRunner(sim, [[]])
    runner.apply("sched", 1.0)
    runner.apply("run", None, 1)  # clock now at 1.0
    # wake-up, zero-delay pair, wake-up, wake-up
    runner.apply("mixed", (True, False, True, True))
    runner.apply("run", 5.0, 2)
    # the cut lands between two wake-ups: the clock stays at their instant
    assert sim.now == 1.0
    assert sim.pending == 2
    runner.apply("run", None, None)
    fired = [entry[1] for entry in runner.log if entry[0] == "fire"]
    assert fired == [0, 1, 2, 3, 4]


def test_telemetry_sees_wakeups_as_process_resume_at_priority_zero():
    sim = Simulator()
    hub = Telemetry(sim, event_capacity=None, trace_sim_events=True)
    attach_simulator(hub, sim)
    signal = Signal(sim)

    def waiter():
        yield signal

    def firer():
        signal.succeed()
        yield signal

    spawn(sim, waiter())
    spawn(sim, firer())
    sim.schedule(0.0, lambda _: None)  # a zero-delay pair on the lane
    sim.run()
    fired = [
        (ev.ts, ev.attrs["callback"], ev.attrs["priority"])
        for ev in hub.events.select(kind="sim.event")
    ]
    resume = "Process._resume"
    # two spawns, the lambda, then both processes woken by the signal
    assert [cb for _, cb, _ in fired].count(resume) == 4
    assert all(prio == 0 for _, _, prio in fired)
    assert all(ts == 0.0 for ts, _, _ in fired)
    assert fired[2][1].endswith("<lambda>")
    assert sim.events_processed == len(fired)


# ----------------------------------------------------------------------
# heap pairs: timeouts and resource holds
# ----------------------------------------------------------------------
class _KeyLog:
    """A kernel hook that logs every fired entry into a program log."""

    def __init__(self, log):
        self.log = log

    def sim_event_fired(self, time, callback):
        self.log.append(("key", time, callback.__qualname__))

    def process_spawned(self, process):
        pass


class PairProgramRunner(ProgramRunner):
    """:class:`ProgramRunner` plus runs of heap pairs at one time,
    ``Timeout`` waiters, ``use_batch`` holders and interrupts."""

    def __init__(self, kernel, reactions, traced):
        super().__init__(kernel, reactions)
        self.resource = Resource(kernel, capacity=2)
        self.processes = []
        if traced:
            kernel.telemetry = _KeyLog(self.log)

    def _sleeper(self, eid, delay):
        try:
            yield Timeout(delay)
        except Interrupt:
            # the abandoned timeout's pair stays queued and fires stale
            yield Timeout(delay)
        self._fired(eid)

    def _holder(self, eid, holds):
        yield from self.resource.use_batch(holds)
        self._fired(eid)

    def _schedule(self, op, *args):
        k = self.kernel
        eid = self.scheduled
        if op == "timeout":
            self.processes.append(spawn(k, self._sleeper(eid, args[0])))
        elif op == "hold":
            spawn(k, self._holder(eid, args[0]))
        elif op == "interrupt":
            if self.processes:
                self.processes[-1 - args[0] % len(self.processes)].interrupt()
            return
        else:
            super()._schedule(op, *args)
            return
        self.scheduled += 1

    def apply(self, op, *args):
        if op not in ("timeout", "hold", "interrupt", "pairs"):
            super().apply(op, *args)
            return
        k = self.kernel
        if op == "pairs":
            n, delay = args
            for _ in range(n):
                self._schedule("sched", delay)
        else:
            self._schedule(op, *args)
        self.log.append((op, k.now, k.pending, k.events_processed))


pair_schedule_ops = st.one_of(
    st.tuples(st.just("sched"), delays),
    st.tuples(st.just("at"), st.sampled_from((0.0, 0.0, 1.0))),
    st.tuples(st.just("soon")),
    st.tuples(st.just("timeout"), delays),
    st.tuples(st.just("hold"), st.lists(delays, min_size=1, max_size=4)),
)
pair_reaction = st.lists(
    st.one_of(pair_schedule_ops, st.tuples(st.just("interrupt"), st.integers(0, 4))),
    max_size=3,
)
pair_ops = st.one_of(
    pair_schedule_ops,
    st.tuples(st.just("interrupt"), st.integers(0, 6)),
    st.tuples(st.just("pairs"), st.integers(1, 30), delays),
    st.tuples(
        st.just("run"),
        st.one_of(st.none(), offsets),
        st.one_of(st.none(), st.integers(0, 12)),
    ),
    st.tuples(st.just("step")),
    st.tuples(st.just("peek")),
    st.tuples(st.just("window"), window_offsets),
    st.tuples(st.just("warp"), offsets),
)


def _execute_pairs(kernel, reactions, program, traced):
    runner = PairProgramRunner(kernel, reactions, traced)
    for op in program:
        runner.apply(*op)
    runner.apply("run", None, None)
    return runner.log


@seed(28)
@settings(max_examples=300, deadline=None)
@given(
    reactions=st.lists(pair_reaction, min_size=1, max_size=8),
    program=st.lists(pair_ops, min_size=10, max_size=60),
    traced=st.booleans(),
)
def test_heap_pairs_match_sorted_reference(reactions, program, traced):
    got = _execute_pairs(Simulator(), reactions, program, traced)
    want = _execute_pairs(ReferenceKernel(), reactions, program, traced)
    assert got == want


def test_telemetry_sees_a_timeout_wakeup_at_its_time():
    sim = Simulator()
    seen = []
    sim.telemetry = _KeyLog(seen)

    def sleeper():
        yield Timeout(2.5)

    sim.schedule(1.0, lambda _: None)
    spawn(sim, sleeper())            # its first resume is a lane pair
    sim.run()
    resume = "Process._resume"
    # the spawn, the lambda, then the timeout, queued at t=0
    assert [entry[1] for entry in seen] == [0.0, 1.0, 2.5]
    assert [entry[2] for entry in seen][::2] == [resume, resume]
    assert seen[1][2].endswith("<lambda>")
    # the hub records the same wake-up as a sim.event at its own time
    sim = Simulator()
    hub = Telemetry(sim, event_capacity=None, trace_sim_events=True)
    attach_simulator(hub, sim)
    spawn(sim, sleeper())
    sim.run()
    fired = [
        (ev.ts, ev.attrs["callback"], ev.attrs["priority"])
        for ev in hub.events.select(kind="sim.event")
    ]
    assert fired == [(0.0, resume, 0), (2.5, resume, 0)]


def test_heap_holds_only_time_seq_pair_entries():
    sim = Simulator()

    def sleeper():
        yield Timeout(3.0)

    sim.schedule(1.0, lambda _: None, "x")
    sim.schedule_at(2.0, lambda _: None)
    spawn(sim, sleeper())
    sim.step()                       # the spawn's lane wake-up
    assert sim._queue and all(
        len(entry) == 3 and entry[2].__class__ is tuple and len(entry[2]) == 2
        for entry in sim._queue
    )
    assert [entry[0] for entry in sorted(sim._queue)] == [1.0, 2.0, 3.0]
