"""The one machine builder, and the batch jobs harness built on it.

In the paper every Compute Node is one PGAS partition run by one
Execution Engine, so every harness builds the same stack.  This module
is the only place that builds it:

- :func:`build_engine` -- one preset Compute Node and its
  :class:`~repro.core.runtime.ExecutionEngine`.  It owns the
  construction order every canonical report depends on:
  ``compiled_suite`` (or a caller's shared pair), a fresh
  ``Simulator``, the ``warp_to`` of a restored incarnation, the
  telemetry factory (``sim -> hub``), ``build_preset_node`` at a node
  id, wiring the hub into the node, then the
  engine with the fixed reconfiguration-daemon period
  :data:`DAEMON_PERIOD_NS`.
- :func:`layered_graph` -- the layered-DAG recipe over
  :data:`GRAPH_FUNCTIONS`, the only copy of the function tuple.

Callers: :func:`build_jobs_machine` / :func:`run_jobs_experiment` (the
``jobs`` command and the daemon's jobs epochs),
:func:`repro.serving.gateway.build_serving_gateway` (batch serving,
the daemon's serving epochs and ``inspect``), the chaos and multi-job chaos experiments, the checkpoint
experiments, restore and ``checkpoint save``, the three sharded
partition builders in :mod:`repro.shard.experiments`, and the
``trace``/``metrics`` commands.  Multi-node jobs run through
:mod:`repro.shard`, one engine per Compute Node built here; only the
``demo`` command (a Tracer and a custom Worker count) builds its own
engine.

:func:`submit_job_mix` is the one loop that submits a
:class:`~repro.presets.JobMix`: the ``jobs`` harness, the daemon, the
sharded jobs nodes and the chaos/checkpoint workloads all go through
it, restore included.

Every node of one shape shares the parts of bring-up that are pure
functions of its parameters (see :class:`~repro.core.ComputeNode`), so
repeated builds of one preset pay for them once per process.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.runtime.report import MachineReport

#: the Fig. 5 reconfiguration daemon's period on every harness machine
DAEMON_PERIOD_NS = 100_000.0

#: the task functions every layered harness workload draws from
GRAPH_FUNCTIONS = ("saxpy", "stencil5", "montecarlo")


def build_engine(
    preset: str,
    *,
    node_id: int = 0,
    telemetry=None,
    fault_tolerance=None,
    compiled=None,
    max_variants: int = 1,
    start_ns: float = 0.0,
    use_daemon: bool = True,
):
    """Build one Compute Node of node preset ``preset`` and its engine.

    ``compiled`` is a ``(registry, library)`` pair shared across the
    machines of one experiment (otherwise ``compiled_suite(max_variants)``);
    ``start_ns`` resumes a restored incarnation's clock at its snapshot
    time; ``telemetry`` is a hub or a factory ``sim -> hub`` (the
    simulator is created here) and reaches the node's Workers and NoC as
    well as the runtime.  ``use_daemon=False`` leaves the Fig. 5 loop to
    a serving autoscaler.  The node is ``engine.node``, its simulator
    ``engine.node.sim``.
    """
    from repro.core.runtime import ExecutionEngine
    from repro.presets import build_preset_node, compiled_suite
    from repro.sim import Simulator

    registry, library = (
        compiled if compiled is not None else compiled_suite(max_variants=max_variants)
    )
    sim = Simulator()
    if start_ns > 0.0:
        sim.warp_to(start_ns)
    if callable(telemetry):
        telemetry = telemetry(sim)
    node = build_preset_node(sim, preset, node_id=node_id)
    node.attach_telemetry(telemetry)
    return ExecutionEngine(
        node,
        registry,
        library,
        use_daemon=use_daemon,
        daemon_period_ns=DAEMON_PERIOD_NS,
        telemetry=telemetry,
        fault_tolerance=fault_tolerance,
    )


def layered_graph(
    layers: int,
    width: int,
    num_workers: int,
    seed: int,
    functions: Sequence[str] = GRAPH_FUNCTIONS,
):
    """One layered DAG of the harness workload recipe.

    ``functions`` is only for replaying a recorded workload (a snapshot's
    ``functions`` list); new workloads use :data:`GRAPH_FUNCTIONS`.
    """
    from repro.apps import make_layered_dag

    return make_layered_dag(
        layers=layers,
        width=width,
        num_workers=num_workers,
        functions=tuple(functions),
        seed=seed,
    )


def build_jobs_machine(
    preset: str,
    seed: int = 0,
    telemetry=None,
    fault_tolerance=None,
    max_variants: int = 1,
    submit_mix: bool = True,
):
    """Build the ``python -m repro jobs`` machine for one preset.

    Returns the :class:`~repro.core.runtime.jobs.JobManager` owning a
    fresh machine with the preset's job mix submitted (unless
    ``submit_mix=False``, which leaves the manager empty for a service
    session to feed).  ``telemetry`` may be a factory ``sim -> hub``:
    the service daemon attaches one per epoch.
    """
    from repro.core.runtime import JobManager
    from repro.presets import job_preset

    mix = job_preset(preset)
    engine = build_engine(
        mix.node,
        telemetry=telemetry,
        fault_tolerance=fault_tolerance,
        max_variants=max_variants,
    )
    manager = JobManager(engine)
    if submit_mix:
        submit_job_mix(manager, mix, seed)
    return manager, mix


def job_mix_graphs(
    mix, num_workers: int, seed: int = 0, functions: Sequence[str] = GRAPH_FUNCTIONS
) -> list:
    """The graph of every job of ``mix``, in job order: job ``j``'s
    layered DAG is seeded ``mix.jobs[j].graph_seed + seed``."""
    return [
        layered_graph(
            spec.layers, spec.width, num_workers, spec.graph_seed + seed, functions
        )
        for spec in mix.jobs
    ]


def submit_job_mix(
    manager,
    mix,
    seed: int = 0,
    *,
    completed: Sequence = (),
    functions: Sequence[str] = GRAPH_FUNCTIONS,
    graphs: Optional[list] = None,
) -> list:
    """Submit every job of ``mix`` onto ``manager``; returns the handles.

    The graphs are :func:`job_mix_graphs` of ``seed`` and ``functions``
    unless ``graphs`` passes them prebuilt.  ``completed[j]`` holds the
    graph indices job ``j`` finished in a checkpointed earlier
    incarnation (jobs past the end of ``completed`` start fresh).
    """
    if graphs is None:
        graphs = job_mix_graphs(mix, len(manager.engine.node), seed, functions)
    return [
        manager.submit_job(
            graph,
            policy=spec.policy,
            priority=spec.priority,
            dataflow=spec.dataflow,
            completed=frozenset(completed[j]) if j < len(completed) else None,
        )
        for j, (spec, graph) in enumerate(zip(mix.jobs, graphs))
    ]


def run_jobs_experiment(
    preset: str, seed: int = 0, telemetry=None
) -> MachineReport:
    """Run one job-mix preset end to end and return its MachineReport."""
    manager, _ = build_jobs_machine(preset, seed=seed, telemetry=telemetry)
    return manager.run()
