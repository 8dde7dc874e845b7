"""Unit tests for generator processes, signals and composite waits."""

import gc
import weakref

import pytest

from repro.sim import (
    AllOf,
    Interrupt,
    SimulationError,
    Signal,
    Simulator,
    Timeout,
    spawn,
)


def test_timeout_advances_clock():
    sim = Simulator()
    seen = []

    def proc():
        yield Timeout(5.0)
        seen.append(sim.now)

    spawn(sim, proc())
    sim.run()
    assert seen == [5.0]


def test_timeout_negative_rejected():
    with pytest.raises(SimulationError):
        Timeout(-1)


def test_process_return_value_via_join():
    sim = Simulator()
    result = []

    def child():
        yield Timeout(3.0)
        return 42

    def parent():
        value = yield spawn(sim, child())
        result.append(value)

    spawn(sim, parent())
    sim.run()
    assert result == [42]


def test_signal_wait_then_fire():
    sim = Simulator()
    sig = Signal(sim)
    got = []

    def waiter():
        value = yield sig
        got.append((sim.now, value))

    def firer():
        yield Timeout(7.0)
        sig.succeed("hello")

    spawn(sim, waiter())
    spawn(sim, firer())
    sim.run()
    assert got == [(7.0, "hello")]


def test_signal_fire_then_wait_resumes_immediately():
    sim = Simulator()
    sig = Signal(sim)
    sig.succeed("early")
    got = []

    def waiter():
        yield Timeout(2.0)
        value = yield sig
        got.append((sim.now, value))

    spawn(sim, waiter())
    sim.run()
    assert got == [(2.0, "early")]


def test_signal_double_fire_rejected():
    sim = Simulator()
    sig = Signal(sim)
    sig.succeed(1)
    with pytest.raises(SimulationError):
        sig.succeed(2)


def test_signal_value_before_fire_rejected():
    sim = Simulator()
    sig = Signal(sim)
    with pytest.raises(SimulationError):
        _ = sig.value


def test_allof_collects_values_in_order():
    sim = Simulator()
    got = []

    def make(delay, value):
        def proc():
            yield Timeout(delay)
            return value

        return proc()

    def parent():
        children = [spawn(sim, make(3.0, "a")), spawn(sim, make(1.0, "b"))]
        values = yield AllOf(children)
        got.append((sim.now, values))

    spawn(sim, parent())
    sim.run()
    assert got == [(3.0, ["a", "b"])]


def test_allof_empty_completes_immediately():
    sim = Simulator()
    got = []

    def parent():
        values = yield AllOf([])
        got.append(values)

    spawn(sim, parent())
    sim.run()
    assert got == [[]]


def test_interrupt_is_raised_inside_process():
    sim = Simulator()
    got = []

    def victim():
        try:
            yield Timeout(100.0)
        except Interrupt as itr:
            got.append((sim.now, itr.cause))

    def attacker(proc):
        yield Timeout(4.0)
        proc.interrupt("preempted")

    p = spawn(sim, victim())
    spawn(sim, attacker(p))
    sim.run()
    assert got == [(4.0, "preempted")]


def test_caught_interrupt_ignores_stale_wakeup():
    # The Timeout(10) the victim was waiting on stays queued after the
    # interrupt; it must not cut the victim's next wait short.
    sim = Simulator()
    woke = []

    def victim():
        try:
            yield Timeout(10.0)
        except Interrupt:
            pass
        yield Timeout(20.0)
        woke.append(sim.now)

    def attacker(proc):
        yield Timeout(4.0)
        proc.interrupt()

    p = spawn(sim, victim())
    spawn(sim, attacker(p))
    sim.run()
    assert woke == [24.0]
    # the stale wake-up still fires, as a no-op: both starts, the
    # attacker's timeout, the interrupt, the stale and the live timeout
    assert sim.events_processed == 6
    assert sim.now == 24.0


def test_caught_interrupt_ignores_stale_signal():
    # the first, abandoned signal fires while the victim waits on the
    # second: only the wait in progress may resume the process
    sim = Simulator()
    first, second = Signal(sim), Signal(sim)
    got = []

    def victim():
        for sig in (first, second):
            try:
                yield sig
            except Interrupt as itr:
                got.append(("interrupt", itr.cause, sim.now))
        value = yield Timeout(5.0, "timeout")
        got.append((value, sim.now))

    def attacker(proc):
        yield Timeout(1.0)
        proc.interrupt("a")
        yield Timeout(1.0)
        first.succeed("stale")
        proc.interrupt("b")

    p = spawn(sim, victim())
    spawn(sim, attacker(p))
    sim.run()
    assert got == [
        ("interrupt", "a", 1.0),
        ("interrupt", "b", 2.0),
        ("timeout", 7.0),
    ]
    assert not p.alive


def test_uncaught_interrupt_terminates_quietly():
    sim = Simulator()

    def victim():
        yield Timeout(100.0)

    def attacker(proc):
        yield Timeout(1.0)
        proc.interrupt()

    p = spawn(sim, victim())
    spawn(sim, attacker(p))
    sim.run()
    assert not p.alive


def test_interrupt_dead_process_is_noop():
    sim = Simulator()

    def victim():
        yield Timeout(1.0)

    p = spawn(sim, victim())
    sim.run()
    p.interrupt()
    sim.run()
    assert not p.alive


def test_yield_non_waitable_raises():
    sim = Simulator()

    def bad():
        yield 42

    spawn(sim, bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_sequential_timeouts_accumulate():
    sim = Simulator()
    stamps = []

    def proc():
        for _ in range(4):
            yield Timeout(2.5)
            stamps.append(sim.now)

    spawn(sim, proc())
    sim.run()
    assert stamps == [2.5, 5.0, 7.5, 10.0]


def test_many_processes_interleave_deterministically():
    sim = Simulator()
    order = []

    def proc(tag, delay):
        yield Timeout(delay)
        order.append(tag)

    for i in range(5):
        spawn(sim, proc(i, float(5 - i)))
    sim.run()
    assert order == [4, 3, 2, 1, 0]


def _freed_without_collector(run):
    """Run ``run()`` (it returns the objects to watch) with the cyclic
    collector off; whether every one of them is already dead."""
    gc.collect()
    gc.disable()
    try:
        refs = [weakref.ref(obj) for obj in run()]
        return [ref() is None for ref in refs]
    finally:
        gc.enable()


def test_finished_process_is_freed_by_reference_counting():
    def run():
        sim = Simulator()

        def proc():
            yield Timeout(1.0)
            return "done"

        p = spawn(sim, proc())
        sim.run()
        assert p.value == "done"
        return [p, sim]

    assert _freed_without_collector(run) == [True, True]


def test_interrupted_process_is_freed_by_reference_counting():
    def run():
        sim = Simulator()

        def victim():
            yield Timeout(100.0)

        def attacker(proc):
            yield Timeout(1.0)
            proc.interrupt()

        p = spawn(sim, victim())
        spawn(sim, attacker(p))
        sim.run()
        assert not p.alive
        return [p, sim]

    assert _freed_without_collector(run) == [True, True]


def test_close_ends_a_paused_run():
    """``Simulator.close`` closes every unfinished process where it is
    suspended (its ``finally`` runs), drops the pending events and fires
    nothing, so a run paused mid-flight is freed by reference counting."""
    ended = []

    def run():
        sim = Simulator()
        gate = Signal(sim)

        def sleeper():
            try:
                yield Timeout(100.0)
            finally:
                ended.append("sleeper")

        def waiter():
            try:
                yield gate  # never fired
            finally:
                ended.append("waiter")

        def quick():
            yield Timeout(1.0)

        procs = [spawn(sim, sleeper()), spawn(sim, waiter()), spawn(sim, quick())]
        sim.run(until=10.0)
        fired = sim.events_processed
        sim.close()
        assert ended == ["sleeper", "waiter"]
        assert sim.pending == 0 and sim.peek() is None
        assert sim.events_processed == fired and sim.now == 10.0
        assert not any(p.alive for p in procs)
        sim.run()  # nothing left to fire
        assert sim.events_processed == fired
        return procs + [gate, sim]

    assert all(_freed_without_collector(run))


def test_close_refuses_a_running_simulator():
    sim = Simulator()
    errors = []

    def closer(_):
        try:
            sim.close()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, closer)
    sim.run()
    assert len(errors) == 1
