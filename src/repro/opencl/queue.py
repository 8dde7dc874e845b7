"""Command queues: per-device and distributed.

The per-device :class:`CommandQueue` gives standard OpenCL in-order
semantics.  :class:`DistributedCommandQueue` is the Section 4.4
extension: one logical queue spanning every Worker of the node, with
"transparent command queue management" -- each ND-range is routed to the
device nearest its data, choosing CPU vs. FPGA by estimated cost.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence

import numpy as np

from repro.interconnect.message import TransactionType
from repro.opencl.context import Buffer, Context
from repro.opencl.event import Event
from repro.opencl.platform import Device, DeviceType
from repro.opencl.program import KernelHandle
from repro.opencl.types import CommandType, DataScope
from repro.sim import AllOf, Signal, Timeout, spawn

#: host bridge cost for read/write (PCIe/DMA-engine class)
_HOST_BW_GBPS = 8.0
_HOST_LATENCY_NS = 500.0


def _buffer_args(kernel: KernelHandle) -> List[Buffer]:
    return [a for a in kernel.args if isinstance(a, Buffer)]


class CommandQueue:
    """A queue bound to one device.

    ``in_order=True`` (the OpenCL default) serializes commands in
    submission order; ``in_order=False`` gives an out-of-order queue
    where only explicit ``wait_for`` event dependencies order execution
    -- commands with disjoint dependencies overlap on the device's
    parallel resources.
    """

    def __init__(self, context: Context, device: Device, in_order: bool = True) -> None:
        if device not in context.devices:
            raise ValueError(f"device {device.name} is not in this context")
        self.context = context
        self.device = device
        self.in_order = in_order
        self.node = context.platform.node
        self.sim = self.node.sim
        self._last_event: Optional[Event] = None
        self.events: List[Event] = []

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _submit(self, command: CommandType, body, wait_for: Sequence[Event]) -> Event:
        event = Event(self.sim, command)
        deps = [e.signal for e in wait_for]
        if self.in_order and self._last_event is not None:
            deps.append(self._last_event.signal)  # in-order semantics

        def runner() -> Generator:
            if deps:
                yield AllOf(deps)
            event._start()
            result = yield from body()
            event._finish(result)

        spawn(self.sim, runner(), name=f"q.{command.value}")
        self._last_event = event
        self.events.append(event)
        return event

    def finish(self) -> None:
        """Block the host until every enqueued command completed."""
        pending = [e for e in self.events if not e.complete]
        for event in pending:
            event.wait()

    @property
    def outstanding(self) -> int:
        return sum(1 for e in self.events if not e.complete)

    # ------------------------------------------------------------------
    # commands
    # ------------------------------------------------------------------
    def enqueue_nd_range(
        self,
        kernel: KernelHandle,
        global_size: int,
        wait_for: Sequence[Event] = (),
        work_groups: Optional[int] = None,
    ) -> Event:
        """Enqueue one ND-range.

        ``work_groups`` splits the range into that many independent
        chunks; on a CPU device the chunks run on separate cores
        concurrently (OpenCL work-group semantics), bounded by the
        Worker's core count.  ``None`` keeps the single-stream behaviour.
        """
        if global_size <= 0:
            raise ValueError(f"global_size must be positive, got {global_size}")
        if work_groups is not None and work_groups < 1:
            raise ValueError(f"work_groups must be >= 1, got {work_groups}")
        program = kernel.program
        function = kernel.function
        device = self.device
        worker = device.worker
        # snapshot the bound arguments now: OpenCL semantics are that
        # clSetKernelArg after enqueue does not affect queued commands.
        args = tuple(kernel.args)
        buffers = [a for a in args if isinstance(a, Buffer)]

        def body() -> Generator:
            # functional execution first: results are exact regardless of
            # the timing model.
            impl = program.host_impl(function)
            if impl is not None:
                impl(*args)

            # data path: pull every non-resident buffer through UNIMEM
            for buf in buffers:
                if buf.home_worker != worker.worker_id:
                    if buf.scope is DataScope.DEVICE:
                        # classic OpenCL: explicit copy to the device
                        yield from self.node.transfer(
                            buf.home_worker,
                            worker.worker_id,
                            buf.size_bytes,
                            TransactionType.DMA,
                        )
                    else:
                        # PGAS scope: direct loads/stores, page-granular
                        yield from self.node.remote_access(
                            worker.worker_id, buf.range, is_write=False
                        )

            ir = kernel.kernel_ir
            if device.device_type is DeviceType.CPU:
                if work_groups is None or work_groups == 1:
                    yield from worker.run_software(ir, global_size)
                else:
                    # work-group parallelism: chunks on separate cores,
                    # naturally bounded by the CPU Resource's capacity.
                    # One batched acquire/release cycle covers the whole
                    # ND-range instead of one Process per work-group.
                    groups = min(work_groups, global_size)
                    base = global_size // groups
                    extra = global_size % groups
                    chunks = [
                        base + (1 if g < extra else 0) for g in range(groups)
                    ]
                    yield from worker.run_software_batch(ir, chunks)
                return {"device": "cpu", "worker": worker.worker_id}

            # FPGA path: on-demand acceleration (extension #3)
            if worker.hosted_region(function) is None:
                if not program.is_accelerated(function):
                    raise LookupError(
                        f"kernel {function!r} was not enabled for acceleration"
                    )
                capacity = max(
                    (r.capacity for r in worker.fabric.regions),
                    key=lambda c: c.area_units(),
                )
                module = program.library.best_variant(
                    function, capacity=capacity, items_hint=global_size
                )
                if module is None:
                    raise LookupError(
                        f"no variant of {function!r} fits this fabric"
                    )
                yield from worker.load_module(module)
            yield from worker.run_hardware(function, global_size)
            return {"device": "fpga", "worker": worker.worker_id}

        return self._submit(CommandType.ND_RANGE, body, wait_for)

    def enqueue_write(
        self, buf: Buffer, data: np.ndarray, wait_for: Sequence[Event] = ()
    ) -> Event:
        if data.nbytes != buf.size_bytes:
            raise ValueError(
                f"host data is {data.nbytes}B, buffer is {buf.size_bytes}B"
            )

        def body() -> Generator:
            buf.array[:] = data.view(buf.array.dtype)
            yield Timeout(_HOST_LATENCY_NS + buf.size_bytes / _HOST_BW_GBPS)
            return buf

        return self._submit(CommandType.WRITE, body, wait_for)

    def enqueue_read(self, buf: Buffer, wait_for: Sequence[Event] = ()) -> Event:
        def body() -> Generator:
            yield Timeout(_HOST_LATENCY_NS + buf.size_bytes / _HOST_BW_GBPS)
            return buf.array.copy()

        return self._submit(CommandType.READ, body, wait_for)

    def enqueue_copy(
        self, src: Buffer, dst: Buffer, wait_for: Sequence[Event] = ()
    ) -> Event:
        """Extension #2: partition-to-partition transfer by direct
        loads/stores over the interconnect -- never through the host."""
        if src.size_bytes != dst.size_bytes:
            raise ValueError("copy requires equally sized buffers")

        def body() -> Generator:
            dst.array[:] = src.array.view(dst.array.dtype)
            if src.home_worker != dst.home_worker:
                yield from self.node.transfer(
                    src.home_worker,
                    dst.home_worker,
                    src.size_bytes,
                    TransactionType.STORE,
                )
            else:
                yield from self.node.workers[src.home_worker].local_stream(
                    0, src.size_bytes, is_write=True
                )
            return dst

        return self._submit(CommandType.COPY, body, wait_for)

    def enqueue_migrate(
        self, buf: Buffer, target_worker: int, wait_for: Sequence[Event] = ()
    ) -> Event:
        """Extension #1's consistency primitive: move the cacheable home."""

        def body() -> Generator:
            if buf.cacheable_owner != target_worker:
                # dirty lines at the old home are flushed over the NoC
                yield from self.node.transfer(
                    buf.cacheable_owner,
                    target_worker,
                    buf.size_bytes,
                    TransactionType.DMA,
                )
            pages = buf.migrate(target_worker)
            return pages

        return self._submit(CommandType.MIGRATE, body, wait_for)

    def enqueue_marker(self, wait_for: Sequence[Event] = ()) -> Event:
        def body() -> Generator:
            if False:  # pragma: no cover - generator marker
                yield None
            return None

        return self._submit(CommandType.MARKER, body, wait_for)

    def enqueue_barrier(self) -> Event:
        """A marker depending on *every* outstanding command -- the
        synchronization point for out-of-order queues."""
        outstanding = [e for e in self.events if not e.complete]
        return self.enqueue_marker(wait_for=outstanding)


class DistributedCommandQueue:
    """One logical queue across all Workers of the node (Section 4.4).

    ND-ranges are routed to the Worker that *homes* the kernel's first
    buffer (data locality first), then to CPU vs. FPGA by a greedy cost
    compare; per-Worker in-order queues run concurrently with each
    other, giving transparent cross-worker queue management.
    """

    def __init__(self, context: Context) -> None:
        self.context = context
        self.node = context.platform.node
        self._queues: dict = {}
        for device in context.devices:
            self._queues[(device.worker_id, device.device_type)] = CommandQueue(
                context, device
            )
        self.routed_to_fpga = 0
        self.routed_to_cpu = 0

    def queue_for(self, worker_id: int, device_type: DeviceType) -> CommandQueue:
        key = (worker_id, device_type)
        if key not in self._queues:
            raise KeyError(f"no {device_type.value} queue on worker {worker_id}")
        return self._queues[key]

    # ------------------------------------------------------------------
    def _route(self, kernel: KernelHandle, global_size: int) -> CommandQueue:
        """The queue for one ND-range: the data home's FPGA whenever a
        fitting variant's latency -- including a reconfiguration if
        nothing hosts the kernel yet -- beats the software estimate,
        otherwise its CPU."""
        buffers = _buffer_args(kernel)
        target_worker = buffers[0].home_worker if buffers else 0
        worker = self.node.worker(target_worker)
        function = kernel.function
        module = None
        if kernel.program.is_accelerated(function):
            # only consider variants that actually fit this worker's regions
            capacity = max(
                (r.capacity for r in worker.fabric.regions),
                key=lambda c: c.area_units(),
            )
            module = kernel.program.library.best_variant(
                function, capacity=capacity, items_hint=global_size
            )
        if module is not None:
            hw_ns = module.latency_ns(global_size)
            if worker.hosted_region(function) is None:
                hw_ns += worker.reconfig.load_cost_ns(module)
            if hw_ns < worker.software_latency_ns(kernel.kernel_ir, global_size):
                self.routed_to_fpga += 1
                return self.queue_for(target_worker, DeviceType.FPGA)
        self.routed_to_cpu += 1
        return self.queue_for(target_worker, DeviceType.CPU)

    def enqueue_nd_range(
        self,
        kernel: KernelHandle,
        global_size: int,
        wait_for: Sequence[Event] = (),
    ) -> Event:
        queue = self._route(kernel, global_size)
        return queue.enqueue_nd_range(kernel, global_size, wait_for)

    def finish(self) -> None:
        for queue in self._queues.values():
            queue.finish()

    @property
    def outstanding(self) -> int:
        return sum(q.outstanding for q in self._queues.values())
