"""Execution backends: where partition runtimes live.

Two backends share one grant/window implementation
(:mod:`repro.shard.sync`), so they cannot diverge:

* ``inline`` -- every partition runtime lives in this process; the
  coordinator drives them sequentially.  With one partition this *is*
  the single-threaded engine the byte-identity contract references.
* ``process`` -- each partition runtime lives in a forked worker
  process speaking a tiny pickle-RPC over a pipe.  Forking inherits the
  warm interpreter (imports, compiled kernel suite), so bring-up inside
  workers starts hot.

``auto`` picks ``process`` only when it can actually help: more than
one partition, a ``fork`` start method, and more than one CPU.
"""

from __future__ import annotations

import gc
import os
import traceback
from typing import Any, Callable, Dict, List, Optional

from repro.shard.plan import PartitionPlan, ShardError
from repro.shard.sync import NodeCell, PartitionRuntime, SyncStats, run_conservative

#: a builder constructs one Compute Node's cell: (node_id, plan, config)
Builder = Callable[[int, PartitionPlan, dict], NodeCell]

BACKENDS = ("auto", "inline", "process")


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        return os.cpu_count() or 1


def resolve_backend(backend: str, partitions: int) -> str:
    """Resolve ``auto`` to a concrete backend for this host."""
    if backend not in BACKENDS:
        raise ShardError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    if backend != "auto":
        return backend
    if partitions <= 1 or _cpu_count() <= 1:
        return "inline"
    try:
        import multiprocessing

        multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - fork unavailable
        return "inline"
    return "process"


def build_partition(
    builder: Builder, partition: int, plan: PartitionPlan, config: dict
) -> PartitionRuntime:
    """One partition's runtime: ``builder`` called once per node it owns."""
    runtime = PartitionRuntime(partition, plan)
    for node_id in plan.nodes_in(partition):
        runtime.add_cell(builder(node_id, plan, config))
    return runtime


# ----------------------------------------------------------------------
# process backend: pickle-RPC worker
# ----------------------------------------------------------------------
def _shard_main(conn, builder: Builder, partition: int, plan, config) -> None:
    """Worker-process entry: build the runtime, serve protocol calls."""
    # move the inherited heap to the permanent generation: the child's
    # collector then never walks (and copies-on-write) the parent's pages
    gc.freeze()
    try:
        runtime = build_partition(builder, partition, plan, config)
        conn.send(("ok", None))
    except BaseException:
        conn.send(("err", traceback.format_exc()))
        return
    while True:
        try:
            op, args = conn.recv()
        except EOFError:
            return
        if op == "exit":
            return
        try:
            if op == "eot":
                result: Any = runtime.eot()
            elif op == "advance":
                result = runtime.advance(*args)
            elif op == "deliver":
                result = runtime.deliver(*args)
            elif op == "fragments":
                result = runtime.fragments()
            elif op == "capture":
                result = runtime.capture()
            else:
                raise ShardError(f"unknown shard op {op!r}")
            conn.send(("ok", result))
        except BaseException:
            conn.send(("err", traceback.format_exc()))


class ProcessShard:
    """Coordinator-side proxy for one forked partition runtime.

    Construction only forks: the child builds its runtime while the
    coordinator forks the next partition, and :meth:`wait_ready`
    collects the bring-up reply.  A forked child inherits ``builder``
    and ``config`` instead of unpickling them, so any function will do.
    """

    def __init__(self, builder: Builder, partition: int, plan, config) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self.partition = partition
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(
            target=_shard_main,
            args=(child, builder, partition, plan, config),
            name=f"shard{partition}",
        )
        self._proc.start()
        child.close()

    def wait_ready(self) -> None:
        """Block until the child has built its runtime (raises on failure)."""
        self._check()

    def _check(self) -> None:
        status, detail = self._conn.recv()
        if status != "ok":
            raise ShardError(f"partition {self.partition} failed:\n{detail}")
        self._last = detail

    def _rpc(self, op: str, *args) -> Any:
        self._conn.send((op, args))
        self._check()
        return self._last

    def eot(self):
        return self._rpc("eot")

    def advance(self, horizon):
        return self._rpc("advance", horizon)

    # split-phase advance: post the request to every worker first, then
    # collect replies in shard order -- this is where the process
    # backend's windows actually overlap across cores
    def advance_post(self, horizon) -> None:
        self._conn.send(("advance", (horizon,)))

    def advance_wait(self):
        self._check()
        return self._last

    def deliver(self, messages):
        return self._rpc("deliver", messages)

    def fragments(self):
        return self._rpc("fragments")

    def capture(self):
        return self._rpc("capture")

    # split-phase close, like advance: post ``exit`` to every child
    # first, then join them, so the children wind down in parallel
    def close_post(self) -> None:
        try:
            self._conn.send(("exit", ()))
        except (BrokenPipeError, OSError):
            pass

    def close_wait(self) -> None:
        self._proc.join(timeout=10)
        if self._proc.is_alive():  # pragma: no cover - hung worker
            self._proc.terminate()
            self._proc.join()
        self._conn.close()


# ----------------------------------------------------------------------
# the coordinator-side shard set
# ----------------------------------------------------------------------
class ShardSet:
    """All partitions of one sharded run, behind one backend."""

    def __init__(
        self,
        plan: PartitionPlan,
        builder: Builder,
        config: dict,
        backend: str = "auto",
    ) -> None:
        self.plan = plan
        self.backend = resolve_backend(backend, plan.partitions)
        self.shards: List[Any] = []
        if self.backend == "inline":
            for p in range(plan.partitions):
                self.shards.append(build_partition(builder, p, plan, config))
        else:
            # fork every partition before collecting any bring-up reply,
            # so the children build their nodes concurrently
            try:
                for p in range(plan.partitions):
                    self.shards.append(ProcessShard(builder, p, plan, config))
                for shard in self.shards:
                    shard.wait_ready()
            except BaseException:
                self.close()
                raise

    def run(self, pause_at_ns: Optional[float] = None) -> SyncStats:
        return run_conservative(self.plan, self.shards, pause_at_ns=pause_at_ns)

    def fragments(self) -> Dict[int, dict]:
        merged: Dict[int, dict] = {}
        for shard in self.shards:
            merged.update(shard.fragments())
        return merged

    def capture(self) -> Dict[int, dict]:
        merged: Dict[int, dict] = {}
        for shard in self.shards:
            merged.update(shard.capture())
        return merged

    def close(self) -> None:
        forked = [s for s in self.shards if isinstance(s, ProcessShard)]
        for shard in forked:
            shard.close_post()
        for shard in forked:
            shard.close_wait()

    def __enter__(self) -> "ShardSet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
