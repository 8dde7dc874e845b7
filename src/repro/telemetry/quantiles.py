"""Shared latency statistics: deterministic percentiles and summaries.

Latency math used to be scattered -- the histogram percentile walk in
:mod:`repro.sim.stats`, ad-hoc ``sum(x)/len(x)`` means in the runtime's
history/fault bookkeeping, per-report throughput arithmetic in
:mod:`repro.core.runtime.report` -- each with slightly different edge
cases.  This module is the one home for that math:

- :func:`percentile` -- exact linear-interpolation percentile over a
  finite sample (the definition numpy calls ``linear``),
- :func:`fold_sum` -- the left-to-right float sum every report and
  decision uses (``sum()`` compensates its float additions since
  Python 3.12, so its last bits differ between interpreter versions),
- :func:`mean` -- the trivial mean with the empty-sample convention
  (0.0) every caller here wants,
- :class:`StreamingQuantile` -- the P² single-quantile estimator for
  unbounded streams: O(1) memory, no sampling, and **deterministic**
  (same value sequence, same estimate -- no RNG, unlike reservoir
  sampling), which is what the serving layer's SLO tracking needs,
- :func:`histogram_percentile` -- the bin-midpoint percentile used by
  :class:`repro.sim.stats.Histogram`,
- :func:`latency_summary` -- the canonical p50/p95/p99 summary dict the
  reports and the serving layer share.

Everything here is pure stdlib math over plain sequences -- no simulator
or telemetry-hub dependency -- so any layer may import it.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Dict, Iterable, List, Optional, Sequence

__all__ = [
    "StreamingQuantile",
    "fold_sum",
    "histogram_percentile",
    "latency_summary",
    "mean",
    "percentile",
]


def fold_sum(values: Iterable[float]) -> float:
    """``0 + v0 + v1 + ...``, added strictly left to right.

    This is what ``sum()`` computed up to Python 3.11.  From 3.12 on,
    ``sum()`` of floats uses compensated summation, whose result can
    differ in the last bits, so a report or a decision built on it would
    not be reproducible across interpreter versions.  Every float sum
    that reaches a report or a decision goes through here instead, and
    any running total of the same values (``total += v`` in the same
    order) equals it bit for bit.
    """
    return reduce(add, values, 0)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sample (the reporting convention).

    The sum is :func:`fold_sum`'s left-to-right fold."""
    values = list(values)
    if not values:
        return 0.0
    return fold_sum(values) / len(values)


def percentile(values: Sequence[float], p: float) -> float:
    """Exact percentile of a finite sample, linear interpolation.

    ``p`` is in [0, 100].  Deterministic: sorts a copy, never mutates
    the input.  Returns 0.0 for an empty sample.
    """
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    data = sorted(values)
    if not data:
        return 0.0
    if len(data) == 1:
        return data[0]
    rank = (len(data) - 1) * p / 100.0
    lo = int(rank)
    frac = rank - lo
    if lo + 1 >= len(data):
        return data[-1]
    return data[lo] * (1.0 - frac) + data[lo + 1] * frac


def histogram_percentile(
    edges: Sequence[float],
    counts: Sequence[int],
    underflow: int,
    overflow: int,
    p: float,
) -> float:
    """Approximate percentile of a fixed-bin histogram (bin midpoints).

    The walk previously inlined in ``Histogram.percentile``: underflow
    mass reports the lowest edge, overflow the highest, and a bin's mass
    reports its midpoint.
    """
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    total = sum(counts) + underflow + overflow
    if total == 0:
        return 0.0
    target = total * p / 100.0
    running: float = underflow
    if running >= target and underflow:
        return edges[0]
    for i, c in enumerate(counts):
        running += c
        if running >= target:
            return 0.5 * (edges[i] + edges[i + 1])
    return edges[-1]


class StreamingQuantile:
    """P² (Jain & Chlamtac) streaming estimator of one quantile.

    Tracks five markers whose positions are nudged toward the ideal
    quantile positions with parabolic interpolation -- O(1) memory over
    unbounded streams, exact until five observations arrive, and fully
    deterministic (no sampling).  ``q`` is the quantile in (0, 1),
    e.g. 0.99 for p99.
    """

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self._n = 0
        self._heights: List[float] = []           # marker heights
        self._positions: List[float] = []         # actual marker positions
        self._desired: List[float] = []           # desired marker positions
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    @property
    def count(self) -> int:
        return self._n

    def record(self, value: float) -> None:
        self._n += 1
        if self._n <= 5:
            self._heights.append(value)
            self._heights.sort()
            if self._n == 5:
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [
                    1.0,
                    1.0 + 2.0 * self.q,
                    1.0 + 4.0 * self.q,
                    3.0 + 2.0 * self.q,
                    5.0,
                ]
            return
        h = self._heights
        # locate the cell and bump marker positions above it
        if value < h[0]:
            h[0] = value
            k = 0
        elif value >= h[4]:
            h[4] = value
            k = 3
        else:
            k = 0
            while value >= h[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            self._positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        # adjust the three interior markers
        for i in (1, 2, 3):
            d = self._desired[i] - self._positions[i]
            n_i, n_lo, n_hi = (
                self._positions[i],
                self._positions[i - 1],
                self._positions[i + 1],
            )
            if (d >= 1.0 and n_hi - n_i > 1.0) or (d <= -1.0 and n_lo - n_i < -1.0):
                step = 1.0 if d >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, step)
                self._positions[i] += step

    def _parabolic(self, i: int, d: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (n[j] - n[i])

    @property
    def value(self) -> float:
        """The current estimate (exact for fewer than six samples)."""
        if self._n == 0:
            return 0.0
        if self._n <= 5:
            return percentile(self._heights, self.q * 100.0)
        return self._heights[2]


def latency_summary(
    values: Sequence[float], percentiles: Sequence[float] = (50.0, 95.0, 99.0)
) -> Dict[str, float]:
    """The canonical latency block shared by reports and the SLO tracker.

    Keys: ``count``, ``mean``, ``max`` and one ``p<N>`` per requested
    percentile (defaults p50/p95/p99).  All zeros on an empty sample.
    """
    data = sorted(values)
    out: Dict[str, float] = {
        "count": float(len(data)),
        "mean": mean(data),
        "max": data[-1] if data else 0.0,
    }
    for p in percentiles:
        label = f"p{p:g}".replace(".", "_")
        out[label] = percentile(data, p)
    return out
