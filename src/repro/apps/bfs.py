"""Distributed breadth-first search: the irregular-communication workload.

Section 2: "the PGAS programming model is an attractive alternative for
designing applications with irregular communication patterns".  Graph
traversal is the canonical such application: per-level frontier
exchanges consist of many small, destination-dependent messages that a
bulk-synchronous MPI formulation must batch and a PGAS formulation can
issue as fine-grained remote stores.

The BFS itself runs for real (numpy CSR, validated against networkx in
the tests); :func:`frontier_exchange_plan` reports, per level, exactly
which (src_partition, dst_partition, vertex_count) messages cross
partitions -- the input to the CLAIM-IRREGULAR transport comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np


@dataclass(frozen=True)
class CsrGraph:
    """A compressed-sparse-row undirected graph."""

    indptr: np.ndarray
    indices: np.ndarray

    @property
    def num_vertices(self) -> int:
        return len(self.indptr) - 1

    def neighbours(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])


def random_graph(n: int, avg_degree: float = 8.0, seed: int = 0) -> CsrGraph:
    """An Erdos-Renyi-style random graph in CSR form (deterministic)."""
    if n < 2 or avg_degree <= 0:
        raise ValueError("need n >= 2 and positive average degree")
    rng = np.random.default_rng(seed)
    m = int(n * avg_degree / 2)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    # symmetrize and dedupe
    a = np.concatenate([src, dst])
    b = np.concatenate([dst, src])
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    uniq = np.ones(len(a), dtype=bool)
    uniq[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    a, b = a[uniq], b[uniq]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, a + 1, 1)
    indptr = np.cumsum(indptr)
    return CsrGraph(indptr=indptr, indices=b.astype(np.int64))


def bfs_levels(graph: CsrGraph, source: int = 0) -> np.ndarray:
    """Level of every vertex from ``source`` (-1 = unreachable)."""
    if not 0 <= source < graph.num_vertices:
        raise ValueError(f"source {source} out of range")
    levels = np.full(graph.num_vertices, -1, dtype=np.int64)
    levels[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        nxt: List[int] = []
        for v in frontier:
            for u in graph.neighbours(int(v)):
                if levels[u] < 0:
                    levels[u] = level
                    nxt.append(int(u))
        frontier = np.array(sorted(set(nxt)), dtype=np.int64)
    return levels


@dataclass(frozen=True)
class FrontierExchange:
    """One BFS level's cross-partition traffic."""

    level: int
    messages: Tuple[Tuple[int, int, int], ...]  # (src_part, dst_part, vertices)

    @property
    def total_vertices(self) -> int:
        return sum(c for _, _, c in self.messages)

    @property
    def message_count(self) -> int:
        return len(self.messages)

    def mean_message_vertices(self) -> float:
        if not self.messages:
            return 0.0
        return self.total_vertices / len(self.messages)


def frontier_exchange_plan(
    graph: CsrGraph, levels: np.ndarray, partitions: int
) -> List[FrontierExchange]:
    """Per-level cross-partition discovery messages (block partitioning).

    When a level-k vertex in partition i discovers a level-(k+1) vertex
    owned by partition j != i, one notification (src=i, dst=j) is due.
    These are exactly the small irregular messages the paper talks about.
    """
    if partitions < 1:
        raise ValueError("need at least one partition")
    n = graph.num_vertices
    owner = np.minimum((np.arange(n) * partitions) // n, partitions - 1)
    max_level = int(levels.max())
    plans: List[FrontierExchange] = []
    for level in range(max_level):
        counts: Dict[Tuple[int, int], int] = {}
        frontier = np.flatnonzero(levels == level)
        for v in frontier:
            for u in graph.neighbours(int(v)):
                if levels[u] == level + 1:
                    i, j = int(owner[v]), int(owner[u])
                    if i != j:
                        counts[(i, j)] = counts.get((i, j), 0) + 1
        plans.append(
            FrontierExchange(
                level=level + 1,
                messages=tuple(
                    (i, j, c) for (i, j), c in sorted(counts.items())
                ),
            )
        )
    return plans
