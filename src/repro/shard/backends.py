"""Execution backends: where partition runtimes live.

Two backends share one grant/window implementation
(:mod:`repro.shard.sync`), so they cannot diverge:

* ``inline`` -- every partition runtime lives in this process; the
  coordinator drives them sequentially.  With one partition this *is*
  the single-threaded engine the byte-identity contract references.
* ``process`` -- partition 0 lives in the coordinator, as under
  ``inline``; every other partition runtime lives in a persistent
  worker process speaking a tiny pickle-RPC over a pipe.  The
  coordinator advances partition 0 while the workers advance theirs,
  so P partitions keep P processes busy.  Workers are forked by the
  first run that needs them and parked between runs: a later run sends
  ``build`` to a parked worker instead of forking, so each worker pays
  for the fork and for copying the pages it writes only once
  (``process`` at one partition uses none).  A parked worker's module
  state dates from its fork, so everything a build reads travels by
  pickle: the builder by import path, and its ``config``.

``auto`` picks ``process`` only when it can actually help: more than
one partition, a ``fork`` start method, and more than one CPU.
"""

from __future__ import annotations

import atexit
import gc
import os
import traceback
from typing import Any, Callable, Dict, List, Optional

from repro.shard.plan import PartitionPlan, ShardError
from repro.shard.sync import NodeCell, PartitionRuntime, SyncStats, run_conservative

#: a builder constructs one Compute Node's cell: (node_id, plan, config).
#: It must be a module-level function and ``config`` picklable: the
#: process backend sends both to its workers by pickle.
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
# process backend: persistent partition workers
# ----------------------------------------------------------------------
#: protocol calls a worker forwards to its partition runtime
_RUNTIME_OPS = frozenset(("eot", "advance", "deliver", "fragments", "capture"))

#: every live worker this process forked, oldest first, parked or
#: serving a run.  It is process-wide because it must outlive each
#: ShardSet: that is what lets a run reuse the last run's workers.
_workers: List["ProcessShard"] = []


def _worker_main(conn) -> None:
    """Worker-process entry: serve one partition of each run until
    ``exit``, or until the coordinator's end of the pipe closes."""
    # the fork copied the coordinator's end of every worker's pipe, this
    # one's included: close them, so each worker sees EOF once the
    # coordinator is gone
    for worker in _workers:
        worker._conn.close()
    _workers.clear()
    # move the inherited heap to the permanent generation: the worker's
    # collector then never walks (and copies-on-write) the parent's pages
    gc.freeze()
    runtime: Optional[PartitionRuntime] = None
    while True:
        try:
            op, args = conn.recv()
        except EOFError:
            return
        if op == "exit":
            return
        try:
            result: Any = None
            if op == "build":
                runtime = build_partition(*args)
            elif op == "release":
                if runtime is not None:
                    runtime.close()
                runtime = None
            elif op in _RUNTIME_OPS:
                result = getattr(runtime, op)(*args)
            else:
                raise ShardError(f"unknown shard op {op!r}")
            reply = ("ok", result)
        except Exception:
            reply = ("err", traceback.format_exc())
        try:
            conn.send(reply)
        except OSError:  # the coordinator is gone
            return


class ProcessShard:
    """Coordinator-side proxy for one persistent partition worker.

    A worker is forked once and then serves one partition of each run
    that takes it from the pool: :meth:`build_post` sends ``("build",
    builder, partition, plan, config)``, the worker builds while the
    coordinator builds partition 0, and :meth:`wait_ready` collects the
    bring-up reply.  When the run ends, ``release`` frees the worker's
    runtime and the worker is parked for the next run.  Only partitions
    1..P-1 get a worker.  A worker that answered ``err``, died, or still
    owes a reply when its run ends is never parked: :meth:`reap`
    terminates it, and a later run forks a fresh one.
    """

    def __init__(self) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self.partition = 0
        self.parked = False
        self._broken = False
        self._owed = 0  # requests sent whose reply is not read yet
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(
            target=_worker_main, args=(child,), name="shard-worker", daemon=True
        )
        # listed before the fork, so the worker closes this end too
        _workers.append(self)
        try:
            self._proc.start()
        except BaseException:
            _workers.remove(self)
            raise
        finally:
            child.close()
        # registered after multiprocessing's own exit hook, so it runs
        # first: parked workers are asked to exit, not terminated
        atexit.unregister(shutdown_workers)
        atexit.register(shutdown_workers)

    def _post(self, op: str, *args) -> None:
        try:
            self._conn.send((op, args))
        except OSError as exc:
            self._broken = True
            raise ShardError(f"partition {self.partition} worker is gone") from exc
        self._owed += 1

    def _wait(self) -> Any:
        try:
            status, detail = self._conn.recv()
        except (EOFError, OSError) as exc:
            self._broken = True
            raise ShardError(f"partition {self.partition} worker died") from exc
        self._owed -= 1
        if status != "ok":
            self._broken = True
            raise ShardError(f"partition {self.partition} failed:\n{detail}")
        return detail

    def _rpc(self, op: str, *args) -> Any:
        self._post(op, *args)
        return self._wait()

    def build_post(self, builder: Builder, partition: int, plan, config) -> None:
        self.partition = partition
        self._post("build", builder, partition, plan, config)

    def wait_ready(self) -> None:
        """Block until the worker has built its runtime (raises on failure)."""
        self._wait()

    def eot(self):
        return self._rpc("eot")

    # split-phase advance: post the request to every worker first, then
    # collect replies in shard order -- this is where the process
    # backend's windows actually overlap across cores
    def advance_post(self, horizon) -> None:
        self._post("advance", horizon)

    def advance_wait(self):
        return self._wait()

    def deliver(self, messages):
        return self._rpc("deliver", messages)

    def fragments(self):
        return self._rpc("fragments")

    def capture(self):
        return self._rpc("capture")

    # split-phase release, like advance: every worker frees its runtime
    # while the coordinator frees partition 0
    def release_post(self) -> bool:
        """Ask the worker to free its runtime; False if it is broken or
        still owes a reply, so its state is unknown."""
        if self._broken or self._owed:
            return False
        try:
            self._post("release")
        except ShardError:
            return False
        return True

    def release_wait(self) -> None:
        """Park the worker once its runtime is freed, or reap it."""
        try:
            self._wait()
        except ShardError:
            self.reap()
            return
        self.parked = True

    def reap(self, grace_s: float = 0.0) -> None:
        """Join the worker, terminating it if it is still alive after
        ``grace_s``, and drop it from the pool."""
        self._proc.join(grace_s)
        if self._proc.exitcode is None:
            self._proc.terminate()
            self._proc.join()
        self._conn.close()
        _workers.remove(self)


def _acquire() -> ProcessShard:
    """The oldest parked worker, or a newly forked one."""
    for worker in _workers:
        if worker.parked:
            worker.parked = False
            return worker
    return ProcessShard()


def shutdown_workers() -> None:
    """Stop every worker this process forked: each parked one is sent
    ``exit`` and joined, any other is terminated.  Runs at interpreter
    exit; a worker whose coordinator dies without it exits on EOF."""
    workers = list(_workers)
    for worker in workers:
        if worker.parked:
            try:
                worker._conn.send(("exit", ()))
            except OSError:
                pass
    for worker in workers:
        worker.reap(grace_s=10.0 if worker.parked else 0.0)


# ----------------------------------------------------------------------
# the coordinator-side shard set
# ----------------------------------------------------------------------
class ShardSet:
    """All partitions of one sharded run, behind one backend.

    ``shards`` is in partition order.  Under ``inline`` every entry is
    a :class:`PartitionRuntime`; under ``process`` entry 0 is still the
    coordinator's own runtime and entries 1..P-1 are
    :class:`ProcessShard` workers, which :func:`run_conservative` posts
    each window to before it advances partition 0 inline.  If any
    bring-up fails -- partition 0's in this process or a worker's --
    the set is closed before the error propagates.  :meth:`close`
    parks every worker that finished cleanly and reaps the rest.
    """

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
            # post the builds of partitions 1..P-1 first, so the workers
            # build their nodes while the coordinator builds partition 0
            # itself; only then collect the workers' bring-up replies
            try:
                for p in range(1, plan.partitions):
                    worker = _acquire()
                    self.shards.append(worker)
                    worker.build_post(builder, p, plan, config)
                self.shards.insert(0, build_partition(builder, 0, plan, config))
                for shard in self.shards[1:]:
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
        workers = [s for s in self.shards if isinstance(s, ProcessShard)]
        released = [w for w in workers if w.release_post()]
        for shard in self.shards:
            if not isinstance(shard, ProcessShard):
                shard.close()
        for worker in workers:
            if worker in released:
                worker.release_wait()
            else:
                worker.reap()
        # a parked worker may already serve another set
        self.shards = []

    def __enter__(self) -> "ShardSet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
