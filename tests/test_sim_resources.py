"""Unit tests for Resource, PriorityResource and Store."""

import pytest

from repro.sim import (
    Interrupt,
    PriorityResource,
    Resource,
    SimulationError,
    Simulator,
    Store,
    Timeout,
    spawn,
)


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_resource_grants_up_to_capacity_immediately():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    assert r1.triggered and r2.triggered
    assert not r3.triggered
    assert res.in_use == 2
    assert res.queue_length == 1


def test_release_hands_slot_to_waiter():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    r1 = res.request()
    r2 = res.request()
    assert not r2.triggered
    res.release(r1)
    assert r2.triggered
    assert res.in_use == 1


def test_release_wrong_resource_rejected():
    sim = Simulator()
    a, b = Resource(sim), Resource(sim)
    ra = a.request()
    with pytest.raises(SimulationError):
        b.release(ra)


def test_use_helper_serializes_processes():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    spans = []

    def worker(tag):
        start_wait = sim.now
        yield from res.use(10.0)
        spans.append((tag, start_wait, sim.now))

    for i in range(3):
        spawn(sim, worker(i))
    sim.run()
    ends = sorted(end for _, __, end in spans)
    assert ends == [10.0, 20.0, 30.0]


def test_resource_utilization():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker():
        yield from res.use(5.0)

    spawn(sim, worker())
    sim.run()
    sim.run(until=10.0)
    assert res.utilization() == pytest.approx(0.5)


def test_priority_resource_serves_lower_priority_value_first():
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    order = []

    def holder():
        yield from res.use(5.0, priority=0)

    def claimant(tag, prio):
        yield Timeout(1.0)
        yield from res.use(1.0, priority=prio)
        order.append(tag)

    spawn(sim, holder())
    spawn(sim, claimant("bulk", 10))
    spawn(sim, claimant("urgent", 1))
    sim.run()
    assert order == ["urgent", "bulk"]


def test_priority_resource_fifo_within_same_priority():
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    order = []

    def holder():
        yield from res.use(5.0)

    def claimant(tag):
        yield Timeout(1.0)
        yield from res.use(1.0, priority=3)
        order.append(tag)

    spawn(sim, holder())
    for tag in ("first", "second", "third"):
        spawn(sim, claimant(tag))
    sim.run()
    assert order == ["first", "second", "third"]


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    store.put("x")
    got = []

    def consumer():
        item = yield store.get()
        got.append(item)

    spawn(sim, consumer())
    sim.run()
    assert got == ["x"]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append((sim.now, item))

    def producer():
        yield Timeout(8.0)
        store.put("late")

    spawn(sim, consumer())
    spawn(sim, producer())
    sim.run()
    assert got == [(8.0, "late")]


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    for i in range(5):
        store.put(i)
    got = []

    def consumer():
        for _ in range(5):
            item = yield store.get()
            got.append(item)

    spawn(sim, consumer())
    sim.run()
    assert got == [0, 1, 2, 3, 4]


def test_bounded_store_blocks_putter():
    sim = Simulator()
    store = Store(sim, capacity=1)
    events = []

    def producer():
        yield store.put("a")
        events.append(("put-a", sim.now))
        yield store.put("b")
        events.append(("put-b", sim.now))

    def consumer():
        yield Timeout(5.0)
        item = yield store.get()
        events.append((f"got-{item}", sim.now))

    spawn(sim, producer())
    spawn(sim, consumer())
    sim.run()
    assert ("put-a", 0.0) in events
    assert ("put-b", 5.0) in events


def test_put_nowait_wakes_a_getter_or_queues_like_put():
    sim = Simulator()
    store = Store(sim, capacity=2)
    got = []

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append((sim.now, item))

    spawn(sim, consumer())
    sim.run()
    store.put_nowait("woken")     # the blocked getter takes it
    store.put_nowait("a")
    store.put_nowait("b")
    with pytest.raises(SimulationError):
        store.put_nowait("full")  # a bounded store never blocks it
    sim.run()
    assert got == [(0.0, "woken"), (0.0, "a"), (0.0, "b")]
    assert len(store) == 0


def test_use_batch_rejects_negative_and_nan_holds():
    sim = Simulator()
    res = Resource(sim)
    for bad in (-1.0, float("nan")):
        with pytest.raises(SimulationError):
            next(res.use_batch([1.0, bad]))
    assert res.total_requests == 0


def test_bounded_store_capacity_validation():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Store(sim, capacity=0)


def test_resource_wait_time_accounting():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker():
        yield from res.use(4.0)

    spawn(sim, worker())
    spawn(sim, worker())
    sim.run()
    assert res.total_requests == 2
    assert res.total_wait_time == pytest.approx(4.0)


# ----------------------------------------------------------------------
# use() gives its request back when the waiting process is interrupted
# ----------------------------------------------------------------------

def _interrupted_waiter_run(cls, interrupt_at):
    """One holder for [0, 5), a waiter interrupted at ``interrupt_at``
    while it waits, and a later user arriving at t=1."""
    sim = Simulator()
    res = cls(sim, capacity=1)
    log = []
    procs = {}
    # scheduled before any process starts, so at t=5 it fires ahead of
    # the holder's release: the grant and the interrupt share an instant
    sim.schedule(interrupt_at, lambda _: procs["waiter"].interrupt())

    def holder():
        yield from res.use(5.0)

    def waiter():
        try:
            yield from res.use(10.0)
            log.append(("waiter done", sim.now))
        except Interrupt:
            log.append(("interrupted", sim.now))

    def later():
        yield Timeout(1.0)
        yield from res.use(2.0)
        log.append(("later done", sim.now))

    spawn(sim, holder())
    procs["waiter"] = spawn(sim, waiter())
    spawn(sim, later())
    sim.run()
    return res, log


@pytest.mark.parametrize("cls", [Resource, PriorityResource])
def test_use_withdraws_request_of_interrupted_waiter(cls):
    res, log = _interrupted_waiter_run(cls, interrupt_at=3.0)
    assert log == [("interrupted", 3.0), ("later done", 7.0)]
    assert (res.in_use, res.queue_length) == (0, 0)


@pytest.mark.parametrize("cls", [Resource, PriorityResource])
def test_use_releases_slot_granted_in_the_interrupt_instant(cls):
    # the holder hands the slot to the waiter at t=5, but the interrupt
    # queued earlier in that instant reaches the waiter first: the
    # granted slot goes on to the later user instead of leaking
    res, log = _interrupted_waiter_run(cls, interrupt_at=5.0)
    assert log == [("interrupted", 5.0), ("later done", 7.0)]
    assert (res.in_use, res.queue_length) == (0, 0)


def test_priority_use_withdrawal_keeps_queue_order():
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    order = []
    procs = {}

    def user(tag, priority, hold):
        try:
            yield from res.use(hold, priority=priority)
            order.append(tag)
        except Interrupt:
            order.append(f"{tag}-interrupted")

    spawn(sim, user("holder", 0, 5.0))
    for tag, priority in (("a", 3), ("b", 1), ("c", 2)):
        procs[tag] = spawn(sim, user(tag, priority, 1.0))
    sim.schedule(2.0, lambda _: procs["b"].interrupt())
    sim.run()
    assert order == ["b-interrupted", "holder", "c", "a"]
    assert (res.in_use, res.queue_length) == (0, 0)
