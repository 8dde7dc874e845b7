"""The ECOSCALE OpenCL-style programming environment.

Section 4.2 lists the three extensions over a standard OpenCL framework,
all implemented here:

1. "supporting a partitioned global address space within and between
   ECOSCALE workers and nodes, via the introduction of new data scoping
   and consistency abstractions" -- :class:`DataScope` on buffers, and
   UNIMEM page-home migration as the consistency primitive
   (:meth:`Buffer.migrate`).
2. "extending the semantics and providing a scalable and efficient
   implementation of OpenCL data transfers between partitions of the
   address space ... by using direct loads and stores from and to remote
   shared memories" -- :meth:`CommandQueue.enqueue_copy` routes over the
   UNIMEM interconnect, not through the host.
3. "allowing the programmer to specify functions that can be synthesized
   in hardware and can be accelerated, on-demand, at runtime" --
   :meth:`Program.enable_acceleration` plus FPGA devices that load
   modules lazily on first use.

Section 4.4 adds "multiple workers ('devices' ...), distributed command
queues and transparent command queue management across workers in a
node" -- :class:`DistributedCommandQueue`.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cluster": "ClusterContext",
    "context": "Buffer Context",
    "event": "Event",
    "platform": "Device DeviceType Platform",
    "program": "KernelHandle Program",
    "queue": "CommandQueue DistributedCommandQueue",
    "types": "DataScope",
})
