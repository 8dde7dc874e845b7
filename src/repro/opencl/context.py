"""Contexts and PGAS-scoped buffers."""

from __future__ import annotations

import weakref
from typing import List, Optional

import numpy as np

from repro.memory.address import AddressRange
from repro.opencl.platform import Device, Platform
from repro.opencl.types import DataScope
from repro.pgas.allocator import Allocation


class Buffer:
    """A global-memory buffer with an ECOSCALE data scope.

    The buffer is backed by a *real* numpy array (so kernels can compute
    real results) and by a *simulated* allocation in the Compute Node's
    UNIMEM space (so every access has a home, a cacheable owner, and a
    cost).

    The context holds its buffers, so a buffer holds its context only
    weakly and keeps the platform it allocates from: a context ended
    without :meth:`Context.release_all` is freed by reference counting.
    """

    def __init__(
        self,
        context: "Context",
        size_bytes: int,
        scope: DataScope = DataScope.PARTITION,
        affinity_worker: int = 0,
        dtype=np.uint8,
    ) -> None:
        if size_bytes <= 0:
            raise ValueError(f"buffer size must be positive, got {size_bytes}")
        self._context = weakref.ref(context)
        self.platform = context.platform
        self.scope = scope
        self.size_bytes = size_bytes
        itemsize = np.dtype(dtype).itemsize
        if size_bytes % itemsize:
            raise ValueError(
                f"size {size_bytes} is not a multiple of dtype size {itemsize}"
            )
        self.array = np.zeros(size_bytes // itemsize, dtype=dtype)
        self.allocation: Allocation = self.platform.node.allocator.allocate(
            size_bytes, affinity_worker
        )
        self._released = False

    @property
    def context(self) -> Optional["Context"]:
        """The owning context, or ``None`` once it has been freed."""
        return self._context()

    @property
    def home_worker(self) -> int:
        """The NUMA domain (Worker) currently backing the buffer."""
        return self.allocation.domain_id

    @property
    def range(self) -> AddressRange:
        return AddressRange(self.allocation.base, self.size_bytes)

    @property
    def cacheable_owner(self) -> int:
        """Who may cache the buffer's first page right now (UNIMEM home)."""
        return self.platform.node.unimem.page_home(self.allocation.base)

    def migrate(self, new_owner: int) -> int:
        """The consistency abstraction: re-home the buffer's pages so
        ``new_owner`` may cache them (everyone else goes uncached).
        Returns pages moved."""
        node = self.platform.node
        return node.unimem.rehome_range(self.range, new_owner)

    def release(self) -> None:
        if not self._released:
            self.platform.node.allocator.free(self.allocation)
            self._released = True

    def __len__(self) -> int:
        return self.array.size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Buffer {self.size_bytes}B scope={self.scope.value} "
            f"home=w{self.home_worker}>"
        )


class Context:
    """An OpenCL context over some of the platform's devices."""

    def __init__(self, platform: Platform, devices: Optional[List[Device]] = None) -> None:
        self.platform = platform
        self.devices = list(devices) if devices is not None else platform.devices()
        if not self.devices:
            raise ValueError("a context needs at least one device")
        self.buffers: List[Buffer] = []

    def create_buffer(
        self,
        size_bytes: int,
        scope: DataScope = DataScope.PARTITION,
        affinity_worker: int = 0,
        dtype=np.uint8,
    ) -> Buffer:
        buf = Buffer(self, size_bytes, scope, affinity_worker, dtype)
        self.buffers.append(buf)
        return buf

    def release_all(self) -> None:
        for buf in self.buffers:
            buf.release()
        self.buffers.clear()
