"""Fine-grain sharing of a loaded accelerator: the Virtualization block.

Section 4.1: "it will support fine-grain sharing of those FPGA resources,
where a function implemented in hardware can be 'called' by different
tasks or threads of an HPC application in parallel, through the
Virtualization block ... a mechanism to execute multiple function calls
(from different virtual machines) in a fully pipelined fashion."

:class:`VirtualizedAccelerator` models exactly that: calls from any number
of callers are admitted into the module's pipeline back-to-back, one new
call every *initiation interval*, rather than serializing whole
invocations.  The alternative (exclusive locking per call) is also
provided so experiments can quantify the win.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional

from repro.fabric.module_library import AcceleratorModule
from repro.sim import Resource, Signal, Simulator, Timeout
from repro.telemetry.quantiles import mean

_invocation_ids = itertools.count()


@dataclass
class Invocation:
    """One hardware function call."""

    caller: str
    items: int
    issued_at: float
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    inv_id: int = field(default_factory=lambda: next(_invocation_ids))

    @property
    def latency_ns(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.issued_at


class VirtualizedAccelerator:
    """Pipelined multi-caller front-end for one loaded module.

    In ``pipelined`` mode, admission to the datapath is serialized only
    for the *issue* phase (``items * II`` cycles -- the time the call
    occupies the pipeline's front); drain overlaps with the next call.
    In exclusive mode each call holds the accelerator for its entire
    latency.
    """

    def __init__(
        self,
        sim: Simulator,
        module: AcceleratorModule,
        pipelined: bool = True,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.module = module
        self.pipelined = pipelined
        self.name = name or f"virt.{module.name}"
        self._issue = Resource(sim, capacity=1, name=f"{self.name}.issue")
        self.completed: List[Invocation] = []
        self.items_processed = 0
        self.energy_pj = 0.0

    # ------------------------------------------------------------------
    def _issue_ns(self, items: int) -> float:
        per_lane = (items + self.module.parallel_lanes - 1) // self.module.parallel_lanes
        return per_lane * self.module.initiation_interval * self.module.clock_ns

    def _drain_ns(self) -> float:
        # The front is held for items*II (the next call may enter one II
        # after our last item); completion is (items-1)*II + depth, so the
        # residual drain after releasing the front is depth - II cycles.
        residual = max(0, self.module.pipeline_depth - self.module.initiation_interval)
        return residual * self.module.clock_ns

    def call(self, caller: str, items: int):
        """Simulation process for one call; returns the :class:`Invocation`.

        ``result = yield from accel.call("task3", 4096)``
        """
        if items <= 0:
            raise ValueError(f"items must be positive, got {items}")
        inv = Invocation(caller=caller, items=items, issued_at=self.sim.now)

        if self.pipelined:
            # occupy the pipeline front for setup + issue, then drain
            # concurrently with the next caller's issue.
            req = self._issue.request()
            yield req
            inv.started_at = self.sim.now
            try:
                yield Timeout(self.module.setup_ns + self._issue_ns(items))
            finally:
                self._issue.release(req)
            yield Timeout(self._drain_ns())
        else:
            req = self._issue.request()
            yield req
            inv.started_at = self.sim.now
            try:
                yield Timeout(self.module.latency_ns(items))
            finally:
                self._issue.release(req)

        inv.finished_at = self.sim.now
        self.completed.append(inv)
        self.items_processed += items
        self.energy_pj += self.module.energy_pj(
            items, duration_ns=inv.finished_at - inv.started_at
        )
        return inv

    # ------------------------------------------------------------------
    def mean_latency_ns(self) -> float:
        done = [i.latency_ns for i in self.completed if i.latency_ns is not None]
        return mean(done)

    def throughput_items_per_us(self) -> float:
        if not self.completed:
            return 0.0
        span = max(i.finished_at for i in self.completed) - min(
            i.issued_at for i in self.completed
        )
        if span <= 0:
            return float("inf")
        return 1000.0 * self.items_processed / span
