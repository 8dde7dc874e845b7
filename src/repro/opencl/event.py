"""OpenCL-style events over simulation signals."""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.opencl.types import CommandType
from repro.sim import Signal, Simulator

_event_ids = itertools.count()


class Event:
    """Completion handle for one enqueued command.

    Carries the OpenCL profiling timestamps (QUEUED / START / END) in
    simulated nanoseconds.
    """

    def __init__(self, sim: Simulator, command: CommandType) -> None:
        self.sim = sim
        self.command = command
        self.event_id = next(_event_ids)
        self.signal = Signal(sim)
        self.queued_at: float = sim.now
        self.started_at: Optional[float] = None
        self.ended_at: Optional[float] = None
        self.result: Any = None

    @property
    def complete(self) -> bool:
        return self.signal.triggered

    def _start(self) -> None:
        self.started_at = self.sim.now

    def _finish(self, result: Any = None) -> None:
        self.ended_at = self.sim.now
        self.result = result
        self.signal.succeed(None)

    @property
    def duration_ns(self) -> Optional[float]:
        if self.started_at is None or self.ended_at is None:
            return None
        return self.ended_at - self.started_at

    @property
    def queue_delay_ns(self) -> Optional[float]:
        if self.started_at is None:
            return None
        return self.started_at - self.queued_at

    def wait(self) -> Any:
        """Host-side blocking wait: drive the simulation until complete."""
        while not self.complete:
            if not self.sim.step():
                raise RuntimeError(
                    f"event {self.event_id} ({self.command.value}) can never "
                    "complete: simulation queue drained"
                )
        return self.result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.complete else "pending"
        return f"<Event {self.event_id} {self.command.value} {state}>"
