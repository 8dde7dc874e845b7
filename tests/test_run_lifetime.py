"""Every finished run is freed by reference counting.

Each run kind below is driven with the cyclic collector off and
``gc.DEBUG_SAVEALL`` on, then ``gc.collect()`` is asked what it would
have had to free.  Any unreachable object whose type or code comes from
``repro`` means some part of the run's machine sits in a reference
cycle, so a process that runs many machines (the service daemon, a
benchmark loop) holds every dead one until a full collection.  Objects
from elsewhere are ignored: the stdlib's pure-Python JSON encoder, used
for ``indent=`` output, builds a cycle of its own.
"""

import gc
import os
import types

import pytest

import repro
from repro.chaos import (
    restore_from_snapshot,
    run_chaos_experiment,
    run_checkpoint_restore_experiment,
    workload_spec,
)
from repro.chaos.checkpoint_experiment import build_workload
from repro.core.runtime import CheckpointManager, CheckpointPolicy
from repro.experiments import run_jobs_experiment
from repro.presets import compiled_suite
from repro.service import ServiceSession
from repro.serving import run_serving_experiment
from repro.shard.checkpoint import capture_sharded_jobs
from repro.shard.experiments import (
    run_sharded_chaos,
    run_sharded_jobs,
    run_sharded_serving,
)

REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def _origin(obj):
    """A name for ``obj`` if its type or code comes from ``repro``."""
    if isinstance(obj, type):
        return obj.__qualname__ if obj.__module__.startswith("repro") else None
    code = None
    if isinstance(obj, (types.FunctionType, types.MethodType)):
        code = obj.__code__
    elif isinstance(obj, types.FrameType):
        code = obj.f_code
    elif isinstance(obj, types.GeneratorType):
        code = obj.gi_code
    if code is not None:
        if os.path.abspath(code.co_filename).startswith(REPRO_DIR):
            return code.co_qualname if hasattr(code, "co_qualname") else code.co_name
        return None
    cls = type(obj)
    return cls.__qualname__ if cls.__module__.startswith("repro") else None


def cyclic_repro_objects(run):
    """Run ``run()`` with the collector off; the sorted names (with
    counts) of the ``repro`` objects only the collector could free."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        names = [_origin(obj) for obj in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    counts = {}
    for name in names:
        if name is not None:
            counts[name] = counts.get(name, 0) + 1
    return sorted(counts.items())


def _restore():
    compiled = compiled_suite(max_variants=1)
    workload = workload_spec("mini")
    manager, _ = build_workload(workload, compiled=compiled)
    ckpt = CheckpointManager(
        manager, CheckpointPolicy(interval_ns=100_000.0), workload=workload
    )
    ckpt.start()
    manager.run()
    restored, _ = restore_from_snapshot(ckpt.latest(), compiled=compiled)
    restored.run()
    return restored.collect().json()


def _opencl(release_all=True):
    from repro.core import ComputeNode, ComputeNodeParams
    from repro.hls import vecadd_kernel
    from repro.opencl import CommandQueue, Context, DeviceType, Platform, Program
    from repro.sim import Simulator

    platform = Platform(ComputeNode(Simulator(), ComputeNodeParams(num_workers=2)))
    ctx = Context(platform)
    program = Program([vecadd_kernel(1024)])
    program.set_host_impl("vecadd", lambda a, b, c: None)
    a, b, c = (ctx.create_buffer(4096) for _ in range(3))
    queue = CommandQueue(ctx, platform.device(0, DeviceType.CPU))
    queue.enqueue_nd_range(program.kernel("vecadd").set_args(a, b, c), 1024)
    queue.finish()
    if release_all:
        ctx.release_all()


def _session():
    session = ServiceSession(telemetry=False)
    for frame in (
        {"cmd": "submit", "kind": "jobs", "preset": "mini", "seed": 0},
        {"cmd": "run"},
        {"cmd": "report"},
    ):
        reply = session.handle(frame)
        assert reply["ok"], reply


RUNS = {
    "jobs": lambda: run_jobs_experiment("mini").json(),
    "serving": lambda: run_serving_experiment("steady").json(),
    "chaos": lambda: run_chaos_experiment("mini").events_json(),
    "opencl": _opencl,
    # a context its caller drops without release_all()
    "opencl-unreleased": lambda: _opencl(release_all=False),
    "restore": _restore,
    # the crashed incarnation is closed once its snapshot is chosen
    "checkpoint-restore": lambda: run_checkpoint_restore_experiment(
        "mini"
    ).events_json(),
    "session-jobs": _session,
    # paused mid-run: closing the shard set ends its suspended processes
    "sharded-capture": lambda: capture_sharded_jobs(
        400_000.0, "mini", num_nodes=4, partitions=1
    ),
}
for _name, _fn, _preset in (
    ("sharded-jobs", run_sharded_jobs, "mini"),
    ("sharded-serving", run_sharded_serving, "steady"),
    ("sharded-chaos", run_sharded_chaos, "mini"),
):
    RUNS[f"{_name}-p1-inline"] = (
        lambda fn=_fn, preset=_preset: fn(
            preset, num_nodes=2, partitions=1, backend="inline"
        )
    )
    RUNS[f"{_name}-p2-process"] = (
        lambda fn=_fn, preset=_preset: fn(
            preset, num_nodes=2, partitions=2, backend="process"
        )
    )


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_finished_run_is_freed_by_reference_counting(kind):
    assert cyclic_repro_objects(RUNS[kind]) == []


def test_guard_sees_a_cycle():
    """The check itself finds a ``repro`` object left in a cycle."""
    from repro.sim import Signal, Simulator

    def run():
        signal = Signal(Simulator())
        signal.succeed(signal)

    assert ("Signal", 1) in cyclic_repro_objects(run)
