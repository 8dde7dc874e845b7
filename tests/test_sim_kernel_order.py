"""Differential test of the kernel's firing order.

The kernel keeps two queues -- a tuple heap and a FIFO lane for
priority-0 events due at the current instant -- and merges them on every
pop.  This test runs seeded random programs against the kernel and
against a reference that keeps one flat list and always fires the live
entry with the smallest ``(time, priority, seq)``.  Both must fire the
same events in the same order and agree on ``now``, ``pending`` and
``events_processed`` after every operation.

Process wake-ups (``_soon``) travel the lane as bare ``(callback, arg)``
pairs rather than :class:`~repro.sim.Event` s, so a second program
family concentrates on the lane: wake-ups mixed with zero-delay
``schedule()`` events (some cancelled), short ``max_events`` cuts,
``peek``/``step`` between runs, and ``run_window`` horizons.

Timeouts and resource holds travel the heap as bare ``(callback, arg)``
pairs queued by ``_later``, at priority 0 with a sequence number taken
as ``schedule()`` would take it.  A third family mixes them -- raw
``_later`` pairs, ``Timeout`` waits (some interrupted and re-armed)
and ``use_batch`` holds -- with cancellable ``schedule``/``schedule_at``
events at the same ``(time, priority)``, and cancel bursts that compact
the queues while pairs are queued.  A kernel hook logs the ``(time,
priority, seq, callback)`` of every fired entry; its reference hands
out the same numbers.
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
PRIORITIES = (-1, 0, 1)
#: cap on events scheduled from inside callbacks, per program
REACTION_BUDGET = 400


class _RefEvent:
    __slots__ = ("key", "callback", "args", "cancelled")

    def __init__(self, key, callback, args):
        self.key = key
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class ReferenceKernel:
    """One unsorted list; every pop scans for the smallest live key."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self._entries = []
        self._seq = 0
        self._live = {}  # unfinished processes, kept by Process itself

    def schedule(self, delay, callback, *args, priority=0):
        if delay < 0:
            raise SimulationError("past")
        return self.schedule_at(self.now + delay, callback, *args, priority=priority)

    def schedule_at(self, time, callback, *args, priority=0):
        if time < self.now:
            raise SimulationError("past")
        event = _RefEvent((time, priority, self._seq), callback, args)
        self._seq += 1
        self._entries.append(event)
        return event

    def _soon(self, callback, arg):
        self.schedule(0.0, callback, arg)

    def _next(self):
        self._entries = [e for e in self._entries if not e.cancelled]
        return min(self._entries, key=lambda e: e.key, default=None)

    def _fire(self, event):
        self._entries.remove(event)
        self.now = event.key[0]
        self.events_processed += 1
        event.callback(*event.args)

    @property
    def pending(self):
        return sum(not e.cancelled for e in self._entries)

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
        self.handles = []
        self.log = []
        self.budget = REACTION_BUDGET

    def _schedule(self, op, *args):
        eid = len(self.handles)
        k = self.kernel
        if op == "sched":
            delay, prio = args
            handle = k.schedule(delay, self._fired, eid, priority=prio)
        elif op == "at":
            offset, prio = args
            handle = k.schedule_at(k.now + offset, self._fired, eid, priority=prio)
        else:  # "soon": the process wake-up path
            k._soon(self._fired, eid)
            handle = None
        self.handles.append(handle)

    def _cancel(self, back):
        if self.handles:
            handle = self.handles[-1 - back % len(self.handles)]
            if handle is not None:
                handle.cancel()

    def _fired(self, eid):
        self.log.append(("fire", eid, self.kernel.now))
        for op, *args in self.reactions[eid % len(self.reactions)]:
            if self.budget <= 0:
                return
            if op == "cancel":
                self._cancel(*args)
            else:
                self.budget -= 1
                self._schedule(op, *args)

    def apply(self, op, *args):
        k = self.kernel
        try:
            if op in ("sched", "at", "soon"):
                self._schedule(op, *args)
            elif op == "cancel":
                self._cancel(*args)
            elif op == "mixed":
                # a same-instant run of wake-ups and zero-delay events;
                # pattern bit 1 = wake-up, 0 = event (cancelled when
                # its index is a multiple of ``cancel_every``)
                pattern, prio, cancel_every = args
                for i, wakeup in enumerate(pattern):
                    if wakeup:
                        self._schedule("soon")
                    else:
                        self._schedule("sched", 0.0, prio)
                        if i % cancel_every == 0:
                            self.handles[-1].cancel()
            elif op == "burst":
                n, delay, prio, keep = args
                first = len(self.handles)
                for _ in range(n):
                    self._schedule("sched", delay, prio)
                for i, handle in enumerate(self.handles[first:]):
                    if i % keep:
                        handle.cancel()
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
priorities = st.sampled_from(PRIORITIES)
schedule_ops = st.one_of(
    st.tuples(st.just("sched"), delays, priorities),
    st.tuples(st.just("at"), st.sampled_from((0.0, 0.0, 1.0)), priorities),
    st.tuples(st.just("soon")),
)
reaction = st.lists(
    st.one_of(schedule_ops, st.tuples(st.just("cancel"), st.integers(0, 8))),
    max_size=3,
)
#: window offsets include ``inf``: the sharded engine's last window is
#: unbounded, and ``run_window(inf)`` must fire everything
offsets = st.sampled_from((0.0, 0.5, 1.0, 2.0, 5.0))
window_offsets = st.sampled_from((0.0, 0.5, 1.0, 2.0, 5.0, float("inf")))
top_ops = st.one_of(
    schedule_ops,
    st.tuples(st.just("cancel"), st.integers(0, 20)),
    st.tuples(
        st.just("burst"),
        st.integers(40, 120),
        delays,
        priorities,
        st.integers(1, 6),
    ),
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


#: lane-heavy programs: mostly wake-ups and zero-delay events, with
#: short run cuts so ``max_events`` often stops on a wake-up
lane_schedule_ops = st.one_of(
    st.tuples(st.just("soon")),
    st.tuples(st.just("soon")),
    st.tuples(st.just("sched"), st.just(0.0), st.sampled_from((0, 0, -1, 1))),
    st.tuples(st.just("sched"), delays, priorities),
)
lane_reaction = st.lists(
    st.one_of(lane_schedule_ops, st.tuples(st.just("cancel"), st.integers(0, 4))),
    max_size=3,
)
lane_ops = st.one_of(
    lane_schedule_ops,
    st.tuples(st.just("cancel"), st.integers(0, 6)),
    st.tuples(
        st.just("mixed"),
        st.lists(st.booleans(), min_size=1, max_size=12),
        st.sampled_from((0, 0, -1, 1)),
        st.integers(1, 3),
    ),
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
    runner.apply("sched", 1.0, 0)
    runner.apply("run", None, 1)  # clock now at 1.0
    # wake-up, zero-delay event (kept: 1 % 5 != 0), wake-up, wake-up
    runner.apply("mixed", (True, False, True, True), 0, 5)
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
    sim.schedule(0.0, lambda: None)  # a zero-delay Event on the lane
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


def test_burst_triggers_compaction_of_both_queues():
    # the program shape the property test relies on to reach _compact
    sim = Simulator()
    runner = ProgramRunner(sim, [[]])
    runner.apply("burst", 100, 0.0, 0, 4)  # lane
    runner.apply("burst", 100, 1.0, 0, 4)  # heap
    assert len(sim._lane) + len(sim._queue) < 200
    assert sim.pending == 50


# ----------------------------------------------------------------------
# heap pairs: timeouts and resource holds
# ----------------------------------------------------------------------
class _PairRefEvent(_RefEvent):
    """A reference entry that also carries the ``seq`` the kernel's
    telemetry hook reports: -1 for a lane pair."""

    __slots__ = ("seq",)

    @property
    def time(self):
        return self.key[0]

    @property
    def priority(self):
        return self.key[1]


class _LaneView:
    """``Signal.succeed`` appends wake-ups to ``sim._lane`` directly."""

    def __init__(self, kernel):
        self.kernel = kernel

    def append(self, pair):
        self.kernel._soon(*pair)


class PairReferenceKernel(ReferenceKernel):
    """The sorted reference plus ``_later`` and the kernel hook.

    Order keys use one counter for every entry; a second counter hands
    out the sequence numbers the kernel hands out, which ``_soon`` does
    not take."""

    def __init__(self):
        super().__init__()
        self.telemetry = None
        self._lane = _LaneView(self)
        self._kernel_seq = 0

    def _take_seq(self):
        seq = self._kernel_seq
        self._kernel_seq += 1
        return seq

    def schedule_at(self, time, callback, *args, priority=0, seq=None):
        if time < self.now:
            raise SimulationError("past")
        event = _PairRefEvent((time, priority, self._seq), callback, args)
        self._seq += 1
        event.seq = self._take_seq() if seq is None else seq
        self._entries.append(event)
        return event

    def _soon(self, callback, arg):
        self.schedule_at(self.now, callback, arg, seq=-1)

    def _later(self, delay, callback, arg):
        time = self.now + delay
        seq = self._take_seq()
        self.schedule_at(time, callback, arg, seq=-1 if time == self.now else seq)

    def _fire(self, event):
        if self.telemetry is not None:
            self.telemetry.sim_event_fired(event)
        super()._fire(event)


class _KeyLog:
    """A kernel hook that logs every fired entry into a program log."""

    def __init__(self, log):
        self.log = log

    def sim_event_fired(self, event):
        self.log.append((
            "key", event.time, event.priority, event.seq,
            event.callback.__qualname__,
        ))

    def process_spawned(self, process):
        pass


class PairProgramRunner(ProgramRunner):
    """:class:`ProgramRunner` plus raw ``_later`` pairs, ``Timeout``
    waiters, ``use_batch`` holders and interrupts."""

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
        eid = len(self.handles)
        if op == "later":
            k._later(args[0], self._fired, eid)
        elif op == "timeout":
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
        self.handles.append(None)

    def apply(self, op, *args):
        if op not in ("later", "timeout", "hold", "interrupt", "pairs"):
            super().apply(op, *args)
            return
        k = self.kernel
        if op == "pairs":
            n, delay = args
            for _ in range(n):
                self._schedule("later", delay)
        else:
            self._schedule(op, *args)
        self.log.append((op, k.now, k.pending, k.events_processed))


pair_schedule_ops = st.one_of(
    st.tuples(st.just("sched"), delays, priorities),
    st.tuples(st.just("sched"), delays, st.just(0)),
    st.tuples(st.just("at"), st.sampled_from((0.0, 0.0, 1.0)), priorities),
    st.tuples(st.just("soon")),
    st.tuples(st.just("later"), delays),
    st.tuples(st.just("timeout"), delays),
    st.tuples(st.just("hold"), st.lists(delays, min_size=1, max_size=4)),
)
pair_reaction = st.lists(
    st.one_of(
        pair_schedule_ops,
        st.tuples(st.just("cancel"), st.integers(0, 8)),
        st.tuples(st.just("interrupt"), st.integers(0, 4)),
    ),
    max_size=3,
)
pair_ops = st.one_of(
    pair_schedule_ops,
    st.tuples(st.just("cancel"), st.integers(0, 20)),
    st.tuples(st.just("interrupt"), st.integers(0, 6)),
    st.tuples(st.just("pairs"), st.integers(1, 30), delays),
    st.tuples(
        st.just("burst"),
        st.integers(40, 120),
        delays,
        priorities,
        st.integers(1, 6),
    ),
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
    want = _execute_pairs(PairReferenceKernel(), reactions, program, traced)
    assert got == want


def test_pairs_survive_compaction_and_keep_their_place():
    """A cancel burst compacts both queues while timeout pairs share
    ``(time, 0)`` with cancellable events; the survivors fire in seq
    order."""
    sim = Simulator()
    runner = PairProgramRunner(sim, [[]], traced=True)
    runner.apply("sched", 1.0, 0)       # eid 0, seq 0
    runner.apply("pairs", 3, 1.0)       # eids 1-3, seqs 1-3
    runner.apply("at", 1.0, 0)          # eid 4, seq 4
    runner.apply("burst", 100, 1.0, 0, 4)
    assert len(sim._queue) < 105        # compacted
    assert sim.pending == 5 + 25
    assert sim.peek() == 1.0
    runner.apply("run", None, None)
    keys = [entry[3] for entry in runner.log if entry[0] == "key"]
    assert keys[:5] == [0, 1, 2, 3, 4]
    assert keys == sorted(keys)


def test_telemetry_sees_a_timeout_wakeup_at_its_time_and_seq():
    sim = Simulator()
    seen = []
    sim.telemetry = _KeyLog(seen)

    def sleeper():
        yield Timeout(2.5)

    sim.schedule(1.0, lambda: None)  # seq 0
    spawn(sim, sleeper())            # its first resume is a lane pair
    sim.run()
    resume = "Process._resume"
    assert [entry[1:4] for entry in seen] == [(0.0, 0, -1), (1.0, 0, 0), (2.5, 0, 1)]
    # the spawn, the lambda, then the timeout, queued at t=0 with seq 1
    assert [entry[4] for entry in seen][::2] == [resume, resume]
    assert seen[1][4].endswith("<lambda>")
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
