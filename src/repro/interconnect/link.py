"""Point-to-point links with bandwidth, latency, energy and contention.

Links can also be *degraded* by the chaos subsystem
(:mod:`repro.chaos`): a :class:`LinkFault` armed on a live link models a
lossy or slow channel (per-transfer drop probability paid as
retransmissions, a latency multiplier) or a hard outage (transfers stall
until the link comes back up).  With no fault armed the transfer path is
byte-identical to the healthy one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.sim import PriorityResource, Simulator, Timeout


@dataclass(frozen=True)
class LinkParams:
    """Physical link characteristics.

    Defaults model an on-chip AXI-class layer; inter-chip and inter-chassis
    layers use the constructors in :mod:`repro.interconnect.topology` with
    progressively higher latency and energy per byte (the paper's
    "each level up the tree adds one hop" cost structure).
    """

    bandwidth_gbps: float = 16.0      # GB/s
    latency_ns: float = 10.0          # propagation + arbitration
    energy_per_byte_pj: float = 1.0   # transport energy
    width_lanes: int = 1              # parallel channels (capacity)

    def __post_init__(self) -> None:
        if self.bandwidth_gbps <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth_gbps}")
        if self.latency_ns < 0:
            raise ValueError(f"latency must be non-negative, got {self.latency_ns}")
        if self.energy_per_byte_pj < 0:
            raise ValueError("energy per byte must be non-negative")
        if self.width_lanes < 1:
            raise ValueError("need at least one lane")

    def transfer_ns(self, size_bytes: int) -> float:
        """Uncontended serialization + propagation time for one transfer."""
        return self.latency_ns + size_bytes / self.bandwidth_gbps


@dataclass
class LinkFault:
    """Degradation state armed on a :class:`Link` by the chaos controller.

    - ``drop_rate``: probability one transfer attempt is lost on the
      wire; each loss is paid as a full retransmission (the attempt's
      serialization time and energy are spent again), bounded by
      ``max_retransmits`` so a transfer always terminates.
    - ``latency_multiplier``: scales every attempt's serialization time
      (signal-integrity retraining, FEC overhead, lane narrowing).
    - ``down_until_ns``: hard outage -- transfers issued before this
      simulated time stall until the link is back up, then proceed.

    The RNG is owned by the fault (seeded by the chaos controller), so
    the drop pattern is a pure function of the chaos seed and the
    deterministic order of transfers.
    """

    rng: random.Random = field(default_factory=lambda: random.Random(0))
    drop_rate: float = 0.0
    latency_multiplier: float = 1.0
    down_until_ns: Optional[float] = None
    max_retransmits: int = 8
    # counters (read by chaos reports)
    drops: int = 0
    stalled_transfers: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError(f"drop rate must be in [0, 1), got {self.drop_rate}")
        if self.latency_multiplier < 1.0:
            raise ValueError("latency multiplier must be >= 1")
        if self.max_retransmits < 0:
            raise ValueError("max retransmits must be non-negative")

    def outage_remaining(self, now: float) -> float:
        if self.down_until_ns is None or self.down_until_ns <= now:
            return 0.0
        return self.down_until_ns - now

    def sample_attempts(self) -> int:
        """Total attempts (first try + retransmissions) for one transfer."""
        lost = 0
        while lost < self.max_retransmits and self.rng.random() < self.drop_rate:
            lost += 1
        self.drops += lost
        return 1 + lost


class EnergyTally:
    """A running total of transport energy, shared by the links of one
    :class:`~repro.interconnect.network.Network` (every
    :meth:`Link.account` adds its increment here too).

    It lets a caller read a network's energy in O(1) instead of folding
    over its links.  The two agree bit for bit whenever each increment is
    an integer number of picojoules, as with the per-level ``3 ** level``
    pJ/B of :func:`~repro.interconnect.topology.level_params` times whole
    bytes: every partial sum is then an integer below 2**53, which floats
    hold exactly in any summation order.  Links point at the tally, not
    at their network, so no reference cycle forms.
    """

    __slots__ = ("pj",)

    def __init__(self) -> None:
        self.pj = 0.0


class Link:
    """One directed or shared channel between two interconnect endpoints."""

    def __init__(
        self,
        sim: Simulator,
        params: LinkParams = LinkParams(),
        name: str = "",
        tally: Optional[EnergyTally] = None,
    ) -> None:
        self.sim = sim
        self.params = params
        self.name = name
        # a standalone link keeps a tally of its own
        self.tally = tally if tally is not None else EnergyTally()
        # priority arbitration: waiting sync/interrupt traffic overtakes
        # queued bulk transfers (the QoS the paper's small-message
        # argument presumes)
        self.channel = PriorityResource(sim, capacity=params.width_lanes, name=name)
        self.bytes_carried = 0
        self.messages_carried = 0
        self.energy_pj = 0.0
        # armed by repro.chaos (None = healthy link, zero overhead)
        self.fault: Optional[LinkFault] = None
        # armed by repro.telemetry.wiring.attach_link
        self.telemetry = None
        self.tel_queue = None
        self.tel_latency = None

    # ------------------------------------------------------------------
    def cost(self, size_bytes: int) -> float:
        """Analytic uncontended latency for ``size_bytes`` (ns)."""
        if size_bytes < 0:
            raise ValueError(f"negative transfer size {size_bytes}")
        return self.params.transfer_ns(size_bytes)

    def account(self, size_bytes: int) -> None:
        """Record traffic/energy without simulating (analytic sweeps)."""
        if size_bytes < 0:
            raise ValueError(f"negative transfer size {size_bytes}")
        self.bytes_carried += size_bytes
        self.messages_carried += 1
        energy = size_bytes * self.params.energy_per_byte_pj
        self.energy_pj += energy
        self.tally.pj += energy

    def transfer(self, size_bytes: int, priority: int = 0):
        """Simulation process: occupy a lane for the serialization time.

        ``priority`` is the arbitration class of this transfer on the
        link's priority-ordered wait queue: when every lane is busy,
        waiting transfers are granted in ascending ``(priority,
        arrival-order)`` -- a *lower* value overtakes any queued transfer
        with a higher value, and equal values stay FIFO.  It never
        preempts a transfer already occupying a lane, and it does not
        change the serialization time itself.  Callers map
        :class:`~repro.interconnect.message.TransactionType.priority`
        onto it so sync/interrupt traffic overtakes bulk DMA.
        ``size_bytes`` must be non-negative.  Usage inside a process::

            yield from link.transfer(4096)
        """
        fault = self.fault
        attempts = 1
        multiplier = 1.0
        if fault is not None:
            stall = fault.outage_remaining(self.sim.now)
            if stall > 0:
                fault.stalled_transfers += 1
                yield Timeout(stall)
            attempts = fault.sample_attempts()
            multiplier = fault.latency_multiplier
        hold = self.cost(size_bytes) * multiplier
        channel = self.channel
        traced = self.telemetry is not None
        if traced:
            start = self.sim.now
            self.tel_queue.set(float(channel.queue_length))
        for _ in range(attempts):
            self.account(size_bytes)
            yield from channel.use(hold, priority)
        if traced:
            self.tel_queue.set(float(channel.queue_length))
            self.tel_latency.record(self.sim.now - start)

    @property
    def utilization(self) -> float:
        return self.channel.utilization()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Link {self.name} {self.params.bandwidth_gbps}GB/s>"
