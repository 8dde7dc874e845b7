"""The Execution History (the 'History file' of Fig. 5).

"A history of the function calls as well as their execution time is
stored in a History file (Execution History block).  The runtime
scheduler/daemon will read periodically the system status and the History
file in order to decide at runtime what functions should be loaded on the
reconfiguration block."
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

from repro.telemetry.quantiles import latency_summary, mean


class _RecordFields(NamedTuple):
    function: str
    device: str            # "sw" or "hw"
    worker: int
    items: int
    latency_ns: float
    energy_pj: float
    timestamp: float       # simulated time of completion
    job: int = 0           # owning tenant (0 = the implicit legacy job)


class ExecutionRecord(_RecordFields):
    """One completed function call.

    An immutable named tuple, built once per completed task: positional
    or keyword construction validates the fields, and ``_asdict()``
    gives the History file's JSON object (keys in field order).
    """

    __slots__ = ()

    def __new__(
        cls,
        function: str,
        device: str,
        worker: int,
        items: int,
        latency_ns: float,
        energy_pj: float,
        timestamp: float,
        job: int = 0,
    ) -> "ExecutionRecord":
        if device not in ("sw", "hw"):
            raise ValueError(f"device must be 'sw' or 'hw', got {device!r}")
        if items < 1 or latency_ns < 0 or energy_pj < 0:
            raise ValueError("invalid record fields")
        return tuple.__new__(
            cls,
            (function, device, worker, items, latency_ns, energy_pj, timestamp, job),
        )

    @classmethod
    def _make(cls, iterable) -> "ExecutionRecord":
        # validate here too, so ``_replace`` cannot build a bad record
        return cls(*iterable)


class ExecutionHistory:
    """Append-only store of execution records with query helpers.

    Next to the record log it keeps one list per ``(function, None)``
    and per ``(function, device)``, in append order, so the per-task
    queries (``mean_latency``, ``mean_energy``, ``records(function)``)
    read only the matching records instead of rescanning the log.

    While every append has arrived in timestamp order (the simulator
    appends at completion time, so it always does), the records with
    ``timestamp >= since`` are a suffix of each list: ``since=`` queries
    walk back from the newest record and stop at the first older one.
    One out-of-order append turns that off for good, and ``since=``
    filters the whole retained window instead.
    """

    def __init__(self, capacity: Optional[int] = 100_000) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._records: Deque[ExecutionRecord] = deque(maxlen=capacity)
        self._index: Dict[Tuple[str, Optional[str]], Deque[ExecutionRecord]] = {}
        self._in_order = True
        self._last_timestamp = float("-inf")

    def __len__(self) -> int:
        return len(self._records)

    def append(self, record: ExecutionRecord) -> None:
        if len(self._records) == self.capacity:
            # the evicted record is the oldest, so it heads both its lists
            oldest = self._records[0]
            self._index[(oldest.function, None)].popleft()
            self._index[(oldest.function, oldest.device)].popleft()
        self._records.append(record)
        if self._in_order:
            # ``not >=`` so a NaN timestamp also ends the ordered regime
            if not record.timestamp >= self._last_timestamp:
                self._in_order = False
            self._last_timestamp = record.timestamp
        index = self._index
        function = record.function
        for key in ((function, None), (function, record.device)):
            bucket = index.get(key)
            if bucket is None:
                bucket = index[key] = deque()
            bucket.append(record)

    def record(self, **kwargs) -> ExecutionRecord:
        rec = ExecutionRecord(**kwargs)
        self.append(rec)
        return rec

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def records(
        self,
        function: Optional[str] = None,
        device: Optional[str] = None,
        since: Optional[float] = None,
        job: Optional[int] = None,
    ) -> List[ExecutionRecord]:
        if function is not None:
            out = self._index.get((function, device), ())
        else:
            out = self._records
            if device is not None:
                out = [r for r in out if r.device == device]
        if since is not None:
            if self._in_order:
                tail = []
                for r in reversed(out):
                    if not r.timestamp >= since:
                        break
                    tail.append(r)
                tail.reverse()
                out = tail
            else:
                out = [r for r in out if r.timestamp >= since]
        if job is not None:
            out = [r for r in out if r.job == job]
        return list(out)

    def mean_items(
        self, function: str, since: Optional[float] = None
    ) -> Optional[float]:
        """Mean ``items`` per call of ``function`` (over its records with
        ``timestamp >= since`` when given); ``None`` when there are none.
        Without ``since`` it reads the function's list in place."""
        recs = self._index.get((function, None))
        if recs and since is not None:
            recs = self.records(function, since=since)
        if not recs:
            return None
        return sum(r.items for r in recs) / len(recs)

    def functions(self) -> List[str]:
        return sorted({r.function for r in self._records})

    def call_counts(self, since: Optional[float] = None) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for r in self.records(since=since):
            counts[r.function] = counts.get(r.function, 0) + 1
        return counts

    def mean_latency(
        self, function: str, device: Optional[str] = None
    ) -> Optional[float]:
        recs = self._index.get((function, device))
        if not recs:
            return None
        return mean([r.latency_ns for r in recs])

    def mean_energy(
        self, function: str, device: Optional[str] = None
    ) -> Optional[float]:
        recs = self._index.get((function, device))
        if not recs:
            return None
        return mean([r.energy_pj for r in recs])

    def latency_summary(
        self, function: Optional[str] = None, device: Optional[str] = None
    ) -> Dict[str, float]:
        """p50/p95/p99 latency block over matching records (shared math)."""
        recs = self.records(function, device)
        return latency_summary([r.latency_ns for r in recs])

    def call_counts_by_job(self, since: Optional[float] = None) -> Dict[int, int]:
        """Calls per tenant -- the per-job utilization view."""
        counts: Dict[int, int] = {}
        for r in self.records(since=since):
            counts[r.job] = counts.get(r.job, 0) + 1
        return counts

    def total_time_by_function(self, since: Optional[float] = None) -> Dict[str, float]:
        """Aggregate busy time per function -- the daemon's hotness metric."""
        out: Dict[str, float] = {}
        for r in self.records(since=since):
            out[r.function] = out.get(r.function, 0.0) + r.latency_ns
        return out

    # ------------------------------------------------------------------
    # persistence (the literal History *file*)
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        payload = [r._asdict() for r in self._records]
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def load(cls, path, capacity: Optional[int] = 100_000) -> "ExecutionHistory":
        payload = json.loads(Path(path).read_text())
        hist = cls(capacity)
        for entry in payload:
            hist.append(ExecutionRecord(**entry))
        return hist
