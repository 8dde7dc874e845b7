"""Resilience through reconfiguration.

Section 2: "To further increase energy efficiency, as well as **to
provide resilience**, the Workers employ reconfigurable accelerators."
A fabric region that develops a fault is not a lost machine: the
middleware blanks it, marks it out of the floorplan, and reloads the
affected module into another region -- possibly on another Worker, since
UNILOGIC lets any Worker use any block.

:class:`FaultInjector` breaks regions (and whole Workers) at simulated
times; :class:`RecoveryManager` watches for broken regions and performs
the reload, recording time-to-recover and service continuity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Set, Tuple

from repro.core.compute_node import ComputeNode
from repro.core.unilogic import UnilogicDomain
from repro.fabric.region import Region, RegionState
from repro.sim import Timeout
from repro.telemetry.quantiles import mean


@dataclass
class FaultRecord:
    """One injected fault and its recovery outcome.

    ``failure_reason`` is set when recovery was attempted and gave up:
    ``"no_variant"`` (the module library has no bitstream for the lost
    function) or ``"no_region"`` (no surviving region anywhere in the
    UNILOGIC domain can host it) -- so chaos experiments can count and
    classify unrecoverable faults instead of inferring them.
    """

    worker_id: int
    region_id: int
    function: Optional[str]
    injected_at: float
    recovered_at: Optional[float] = None
    recovery_worker: Optional[int] = None
    failure_reason: Optional[str] = None

    @property
    def recovery_ns(self) -> Optional[float]:
        if self.recovered_at is None:
            return None
        return self.recovered_at - self.injected_at

    @property
    def unrecovered(self) -> bool:
        return self.failure_reason is not None


class FaultInjector:
    """Breaks fabric regions at chosen simulated times."""

    def __init__(self, node: ComputeNode) -> None:
        self.node = node
        self.failed: Set[Tuple[int, int]] = set()   # (worker, region)
        self.records: List[FaultRecord] = []

    def is_failed(self, worker_id: int, region_id: int) -> bool:
        return (worker_id, region_id) in self.failed

    def inject_region_fault(self, worker_id: int, region_id: int) -> FaultRecord:
        """Break one region *now*: whatever module it held is lost."""
        worker = self.node.worker(worker_id)
        if not 0 <= region_id < len(worker.fabric):
            raise ValueError(f"worker {worker_id} has no region {region_id}")
        key = (worker_id, region_id)
        if key in self.failed:
            raise ValueError(f"region {key} already failed")
        region = worker.fabric.regions[region_id]
        record = FaultRecord(
            worker_id=worker_id,
            region_id=region_id,
            function=region.function,
            injected_at=self.node.sim.now,
        )
        # the region is dead: blank it and remove it from service
        worker.reconfig.unload(region)
        region.state = RegionState.LOADING  # never READY/EMPTY again
        self.failed.add(key)
        self.records.append(record)
        return record

    def inject_worker_fault(self, worker_id: int) -> List[FaultRecord]:
        """Break every region of one Worker (board-level fault)."""
        worker = self.node.worker(worker_id)
        return [
            self.inject_region_fault(worker_id, r.region_id)
            for r in worker.fabric.regions
            if not self.is_failed(worker_id, r.region_id)
        ]

    def schedule_region_fault(self, delay_ns: float, worker_id: int, region_id: int) -> None:
        self.node.sim.schedule(
            delay_ns, lambda _: self.inject_region_fault(worker_id, region_id)
        )


class RecoveryManager:
    """Reloads modules lost to faults into surviving regions.

    Recovery policy: prefer a free region on the same Worker, then any
    Worker in the UNILOGIC domain (the paper's accelerator-migration
    virtualization feature doing double duty as repair).
    """

    def __init__(
        self,
        node: ComputeNode,
        unilogic: UnilogicDomain,
        library,
        injector: FaultInjector,
        check_period_ns: float = 50_000.0,
        telemetry=None,
    ) -> None:
        if check_period_ns <= 0:
            raise ValueError("check period must be positive")
        self.node = node
        self.unilogic = unilogic
        self.library = library
        self.injector = injector
        self.check_period_ns = check_period_ns
        self.telemetry = telemetry
        self.recoveries = 0
        self.unrecoverable: List[FaultRecord] = []
        self._running = True

    def stop(self) -> None:
        self._running = False

    @property
    def failed_recoveries(self) -> int:
        """Recoveries that gave up (no variant / no spare region anywhere)."""
        return len(self.unrecoverable)

    # ------------------------------------------------------------------
    def _pending(self) -> List[FaultRecord]:
        return [
            r
            for r in self.injector.records
            if r.recovered_at is None
            and r.function is not None
            and r.failure_reason is None
        ]

    def _mark_recovered(self, record: FaultRecord, worker_id: int) -> None:
        record.recovered_at = self.node.sim.now
        record.recovery_worker = worker_id
        self.recoveries += 1
        if self.telemetry is not None:
            self.telemetry.event(
                "resilience.recovered",
                f"{self.node.name}.resilience",
                function=record.function,
                from_worker=record.worker_id,
                to_worker=worker_id,
                recovery_ns=record.recovery_ns,
            )

    def _mark_unrecoverable(self, record: FaultRecord, reason: str) -> None:
        record.failure_reason = reason
        self.unrecoverable.append(record)
        if self.telemetry is not None:
            self.telemetry.event(
                "resilience.unrecoverable",
                f"{self.node.name}.resilience",
                function=record.function,
                worker=record.worker_id,
                region=record.region_id,
                reason=reason,
            )

    def recover_one(self, record: FaultRecord) -> Generator:
        """Reload the lost function somewhere; returns the region or None.

        Failed recoveries are recorded on the :class:`FaultRecord`
        (``failure_reason``) and counted in :attr:`failed_recoveries`.
        """
        # already re-hosted elsewhere (e.g. another replica survived)?
        existing = self.unilogic.hosting_regions(record.function)
        if existing:
            host, region = existing[0]
            self._mark_recovered(record, host)
            return region
        module = self.library.best_variant(record.function)
        if module is None:
            self._mark_unrecoverable(record, "no_variant")
            return None
        # same worker first, then the rest of the domain
        order = [record.worker_id] + [
            w.worker_id for w in self.node.workers if w.worker_id != record.worker_id
        ]
        for worker_id in order:
            worker = self.node.worker(worker_id)
            candidate = worker.fabric.victim_region(module)
            if candidate is None:
                continue
            if self.injector.is_failed(worker_id, candidate.region_id):
                continue
            region = yield from worker.load_module(module, candidate)
            if region is not None:
                self._mark_recovered(record, worker_id)
                return region
        self._mark_unrecoverable(record, "no_region")
        return None

    def run(self) -> Generator:
        """Periodic repair loop (spawn as a simulation process)."""
        while self._running:
            yield Timeout(self.check_period_ns)
            if not self._running:
                return
            for record in self._pending():
                yield from self.recover_one(record)

    # ------------------------------------------------------------------
    def mean_recovery_ns(self) -> float:
        done = [r.recovery_ns for r in self.injector.records if r.recovery_ns is not None]
        return mean(done)

    def summary(self) -> dict:
        """Recovery outcome counts for chaos reports."""
        return {
            "recoveries": self.recoveries,
            "failed_recoveries": self.failed_recoveries,
            "failure_reasons": sorted(
                r.failure_reason for r in self.unrecoverable
            ),
            "mean_recovery_ns": self.mean_recovery_ns(),
        }
