"""The dynamic batcher: compatible requests become one NDRange task.

Admitted requests park in per-key buckets (``(tenant, function,
shape_class)``); a bucket flushes to the gateway when it reaches
``max_batch`` requests or when its oldest request has waited
``max_wait_ns`` -- whichever comes first.  The coalesced batch runs as a
single :class:`~repro.apps.taskgraph.Task` whose ``items`` is the sum of
the member requests', so one accelerator invocation amortizes dispatch,
scheduling and (potentially) reconfiguration cost over the whole batch.

Timers are plain simulator callbacks guarded by a per-key generation
counter: a flush bumps the generation, so a stale timer for an
already-flushed bucket is a no-op rather than a double flush.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Tuple

from repro.serving.requests import Request

BatchKey = Tuple[str, str, int]


class DynamicBatcher:
    """max-batch / max-wait coalescing of compatible requests."""

    def __init__(self, gateway, max_batch: int = 8, max_wait_ns: float = 50_000.0) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_ns < 0:
            raise ValueError("max_wait_ns must be >= 0")
        # weak: the gateway owns this batcher (see DESIGN.md, "Object
        # lifetime")
        self._gateway = weakref.ref(gateway)
        self.sim = gateway.sim
        self.max_batch = max_batch
        self.max_wait_ns = max_wait_ns
        # opt-in deadline stretch: a callable returning the current
        # max-wait multiplier (brownout sets this to lengthen deadlines
        # while the machine is degraded).  None = the plain deadline.
        self.wait_stretch = None
        self._buckets: Dict[BatchKey, List[Request]] = {}
        self._generation: Dict[BatchKey, int] = {}
        self.batches_flushed = 0
        self.flushes_full = 0
        self.flushes_timeout = 0
        self.requests_batched = 0

    def pending(self) -> int:
        """Requests parked across all buckets (not yet dispatched)."""
        return sum(len(b) for b in self._buckets.values())

    def add(self, request: Request) -> None:
        key = request.batch_key
        bucket = self._buckets.setdefault(key, [])
        bucket.append(request)
        self.requests_batched += 1
        if len(bucket) >= self.max_batch:
            self.flushes_full += 1
            self._flush(key)
        elif len(bucket) == 1:
            gen = self._generation.get(key, 0)
            wait = self.max_wait_ns
            if self.wait_stretch is not None:
                wait *= self.wait_stretch()
            self.sim.schedule(wait, self._timer, (key, gen))

    def _timer(self, key_gen: Tuple[BatchKey, int]) -> None:
        key, gen = key_gen
        if self._generation.get(key, 0) != gen:
            return                       # bucket already flushed and refilled
        if not self._buckets.get(key):
            return
        self.flushes_timeout += 1
        self._flush(key)

    def _flush(self, key: BatchKey) -> None:
        batch = self._buckets.pop(key, [])
        if not batch:
            return
        self._generation[key] = self._generation.get(key, 0) + 1
        self.batches_flushed += 1
        now = self.sim.now
        for r in batch:
            r.batched_at = now
        self._gateway().dispatch_batch(key, batch)

    def flush_all(self) -> None:
        """Dispatch every parked bucket (arrival-stream drain)."""
        for key in sorted(self._buckets):
            self._flush(key)

    @property
    def mean_batch_size(self) -> float:
        if not self.batches_flushed:
            return 0.0
        return self.requests_batched / self.batches_flushed
