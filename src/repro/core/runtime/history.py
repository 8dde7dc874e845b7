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
from typing import Deque, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.telemetry.quantiles import fold_sum, latency_summary


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


class _Bucket:
    """The records of one ``(function, device)`` key (``device=None``:
    every device) in append order, with running left-to-right folds of
    their latency, energy and items.

    ``folded`` says the sums are exactly :func:`fold_sum` over
    ``records``: appends extend them, and an eviction (which removes the
    leftmost record, a step a float fold cannot undo exactly) clears it
    until :meth:`refold` recomputes them from the records.
    """

    __slots__ = ("records", "latency", "energy", "items", "folded")

    def __init__(self) -> None:
        self.records: Deque[ExecutionRecord] = deque()
        # ``0`` like ``sum()``'s start, so the folds match it bit for bit
        self.latency: float = 0
        self.energy: float = 0
        self.items: int = 0
        self.folded = True

    def refold(self) -> None:
        recs = self.records
        self.latency = fold_sum(r.latency_ns for r in recs)
        self.energy = fold_sum(r.energy_pj for r in recs)
        self.items = fold_sum(r.items for r in recs)
        self.folded = True


class ExecutionHistory:
    """Append-only store of execution records with query helpers.

    Next to the record log it keeps one bucket per ``(function, None)``
    and per ``(function, device)`` with that key's records in append
    order and running folds of their latency, energy and items, so the
    per-task means (``mean_latency``, ``mean_energy``, ``mean_items``
    without ``since``) are O(1) and ``records(function)`` reads only the
    matching records.

    **Fold order.** Every mean is its sum divided by its count, and the
    sum is the left-to-right fold over the records in append order
    (:func:`~repro.telemetry.quantiles.fold_sum`): the running total of
    an append-only bucket equals it bit for bit, on every Python
    version.  Evicting a record at capacity removes it from the left,
    which a float fold cannot undo, so the next mean of that bucket
    refolds it from its records: exact, but O(records) while the history
    stays full.

    While every append has arrived in timestamp order (the simulator
    appends at completion time, so it always does), the records with
    ``timestamp >= since`` are a suffix of each bucket and of the log:
    ``since=`` reads (``mean_items``, ``call_counts``, ``records``) walk
    back from the newest record and stop at the first older one, and the
    counting ones copy nothing.  One out-of-order append turns that off
    for good, and ``since=`` filters the whole retained window instead.
    """

    def __init__(self, capacity: Optional[int] = 100_000) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._records: Deque[ExecutionRecord] = deque(maxlen=capacity)
        self._index: Dict[Tuple[str, Optional[str]], _Bucket] = {}
        self._in_order = True
        self._last_timestamp = float("-inf")

    def __len__(self) -> int:
        return len(self._records)

    def append(self, record: ExecutionRecord) -> None:
        index = self._index
        if len(self._records) == self.capacity:
            # the evicted record is the oldest, so it heads both buckets
            oldest = self._records[0]
            for key in ((oldest.function, None), (oldest.function, oldest.device)):
                bucket = index[key]
                bucket.records.popleft()
                bucket.folded = False
        self._records.append(record)
        function, device, _, items, latency, energy, timestamp, _ = record
        if self._in_order:
            # ``not >=`` so a NaN timestamp also ends the ordered regime
            if not timestamp >= self._last_timestamp:
                self._in_order = False
            self._last_timestamp = timestamp
        for key in ((function, None), (function, device)):
            bucket = index.get(key)
            if bucket is None:
                bucket = index[key] = _Bucket()
            bucket.records.append(record)
            if bucket.folded:
                bucket.latency += latency
                bucket.energy += energy
                bucket.items += items

    def record(self, **kwargs) -> ExecutionRecord:
        rec = ExecutionRecord(**kwargs)
        self.append(rec)
        return rec

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _bucket(self, function: str, device: Optional[str]) -> Optional[_Bucket]:
        """The key's bucket with its folds current; ``None`` when empty."""
        bucket = self._index.get((function, device))
        if bucket is None or not bucket.records:
            return None
        if not bucket.folded:
            bucket.refold()
        return bucket

    def _newest(self, records, since: float) -> Iterator[ExecutionRecord]:
        """The records with ``timestamp >= since``, newest first while
        the appends are ordered, else in append order."""
        if self._in_order:
            for r in reversed(records):
                if not r.timestamp >= since:
                    return
                yield r
        else:
            for r in records:
                if r.timestamp >= since:
                    yield r

    def records(
        self,
        function: Optional[str] = None,
        device: Optional[str] = None,
        since: Optional[float] = None,
        job: Optional[int] = None,
    ) -> List[ExecutionRecord]:
        if function is not None:
            bucket = self._index.get((function, device))
            out = bucket.records if bucket is not None else ()
        else:
            out = self._records
            if device is not None:
                out = [r for r in out if r.device == device]
        if since is not None:
            selected = list(self._newest(out, since))
            if self._in_order:
                selected.reverse()
            out = selected
        if job is not None:
            out = [r for r in out if r.job == job]
        return list(out)

    def mean_items(
        self, function: str, since: Optional[float] = None
    ) -> Optional[float]:
        """Mean ``items`` per call of ``function`` (over its records with
        ``timestamp >= since`` when given); ``None`` when there are none.

        Without ``since`` it reads the bucket's running fold.  With it,
        it counts the window in place; ``items`` are integer counts, so
        their sum is exact in any order."""
        if since is None:
            bucket = self._bucket(function, None)
            if bucket is None:
                return None
            return bucket.items / len(bucket.records)
        bucket = self._index.get((function, None))
        if bucket is None:
            return None
        calls = 0
        items = 0
        for r in self._newest(bucket.records, since):
            calls += 1
            items += r.items
        if not calls:
            return None
        return items / calls

    def functions(self) -> List[str]:
        return sorted(
            function
            for (function, device), bucket in self._index.items()
            if device is None and bucket.records
        )

    def call_counts(self, since: Optional[float] = None) -> Dict[str, int]:
        if since is None:
            return {
                function: len(bucket.records)
                for (function, device), bucket in self._index.items()
                if device is None and bucket.records
            }
        counts: Dict[str, int] = {}
        for r in self._newest(self._records, since):
            counts[r.function] = counts.get(r.function, 0) + 1
        return counts

    def mean_latency(
        self, function: str, device: Optional[str] = None
    ) -> Optional[float]:
        bucket = self._bucket(function, device)
        if bucket is None:
            return None
        return bucket.latency / len(bucket.records)

    def mean_energy(
        self, function: str, device: Optional[str] = None
    ) -> Optional[float]:
        bucket = self._bucket(function, device)
        if bucket is None:
            return None
        return bucket.energy / len(bucket.records)

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
