"""Synthetic task DAGs with a tunable locality knob.

The runtime-system experiments need streams of tasks whose function mix,
working-set placement and dependence structure can be controlled.  A
:class:`TaskGraph` is a layered DAG: tasks in one layer may run in
parallel, edges only point to later layers.  The ``locality`` knob sets
the probability that a task's data lives on its preferred worker.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

_task_ids = itertools.count()


@dataclass
class Task:
    """One schedulable unit: a function applied to ``items`` work items."""

    function: str
    items: int
    data_worker: int            # where the working set lives (UNIMEM home)
    affinity_worker: int        # where the partitioning wants it to run
    layer: int = 0
    deps: Tuple[int, ...] = ()
    task_id: int = field(default_factory=lambda: next(_task_ids))
    input_bytes: int = 0
    output_bytes: int = 0
    # provenance tags (e.g. the serving requests batched into this task)
    # -- opaque to the runtime, echoed into its telemetry events so
    # engine-layer decisions stay attributable to originating requests
    tags: Optional[Dict[str, object]] = None

    def __post_init__(self) -> None:
        if self.items < 1:
            raise ValueError(f"task needs at least one item, got {self.items}")


class TaskGraph:
    """A layered DAG of tasks."""

    def __init__(self, tasks: Sequence[Task]) -> None:
        self.tasks: List[Task] = list(tasks)
        self._by_id: Dict[int, Task] = {t.task_id: t for t in self.tasks}
        for t in self.tasks:
            for d in t.deps:
                dep = self._by_id.get(d)
                if dep is None:
                    raise ValueError(f"task {t.task_id} depends on unknown {d}")
                if dep.layer >= t.layer:
                    raise ValueError(
                        f"dependence {d} -> {t.task_id} violates layering"
                    )

    def __len__(self) -> int:
        return len(self.tasks)

    def task(self, task_id: int) -> Task:
        return self._by_id[task_id]

    def layers(self) -> List[List[Task]]:
        out: Dict[int, List[Task]] = {}
        for t in self.tasks:
            out.setdefault(t.layer, []).append(t)
        return [out[k] for k in sorted(out)]

    def width(self) -> int:
        return max(len(layer) for layer in self.layers())

    def critical_path_length(self) -> int:
        return len(self.layers())

    def functions(self) -> List[str]:
        return sorted({t.function for t in self.tasks})


def graph_signature(graph: TaskGraph) -> List[List[object]]:
    """A workload signature independent of global task-id allocation.

    ``make_layered_dag`` draws task ids from a process-global counter,
    so two identical graphs built in one process carry different ids;
    compare what the tasks *are* -- ``[function, items, layer depth]``
    rows in layer order -- not how they were numbered.  The rows are
    JSON-able: a checkpoint snapshot stores them as they are.
    """
    return [
        [task.function, task.items, depth]
        for depth, layer in enumerate(graph.layers())
        for task in layer
    ]


def make_layered_dag(
    layers: int,
    width: int,
    num_workers: int,
    functions: Sequence[str] = ("stencil5", "saxpy", "montecarlo"),
    items_range: Tuple[int, int] = (512, 8192),
    locality: float = 0.9,
    fanin: int = 2,
    seed: int = 0,
) -> TaskGraph:
    """Generate a layered DAG.

    ``locality`` is the probability that ``data_worker == affinity_worker``
    (data was partitioned onto the worker that computes on it); the rest
    of the tasks have their data on a uniformly random other worker --
    the remote-access traffic the UNILOGIC/UNIMEM machinery must absorb.
    """
    if layers < 1 or width < 1 or num_workers < 1:
        raise ValueError("layers, width, workers must all be positive")
    if not 0.0 <= locality <= 1.0:
        raise ValueError(f"locality must be in [0, 1], got {locality}")
    if not functions:
        raise ValueError("need at least one function")
    rng = random.Random(seed)
    choices = list(functions)
    affinities = [(slot * num_workers) // width for slot in range(width)]
    # where a non-local task's data may live: any other worker (itself
    # on a one-worker node); one list per affinity, reused every layer
    others = {
        affinity: [w for w in range(num_workers) if w != affinity] or [affinity]
        for affinity in affinities
    }
    k = min(fanin, width)
    lo, hi = items_range
    tasks: List[Task] = []
    prev_layer: List[Task] = []
    for layer in range(layers):
        current: List[Task] = []
        for affinity in affinities:
            if rng.random() < locality:
                data = affinity
            else:
                data = rng.choice(others[affinity])
            deps: Tuple[int, ...] = ()
            if prev_layer:
                deps = tuple(t.task_id for t in rng.sample(prev_layer, k))
            items = rng.randint(lo, hi)
            task = Task(
                function=rng.choice(choices),
                items=items,
                data_worker=data,
                affinity_worker=affinity,
                layer=layer,
                deps=deps,
                input_bytes=items * 4,
                output_bytes=items * 4,
            )
            current.append(task)
        tasks.extend(current)
        prev_layer = current
    return TaskGraph(tasks)
