"""Statistics collection for simulation runs.

These helpers are deliberately simulation-aware: time-weighted statistics
use the simulator clock so that e.g. "mean queue depth" integrates over
simulated time rather than over samples.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sim.engine import Simulator


class Counter:
    """A named monotonically-accumulating counter."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.value = 0.0
        self.events = 0

    def add(self, amount: float = 1.0) -> None:
        self.value += amount
        self.events += 1

    def set(self, value: float) -> None:
        """Overwrite the accumulated value (collectors mirroring a
        component's own monotonic counter into the registry)."""
        self.value = value
        self.events += 1

    def reset(self) -> None:
        self.value = 0.0
        self.events = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}={self.value}>"


class TimeWeighted:
    """A piecewise-constant signal integrated over simulated time.

    Used for queue depths, number of busy accelerators, instantaneous
    power, etc.
    """

    def __init__(self, sim: Simulator, initial: float = 0.0, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._value = initial
        self._last_time = sim.now
        self._area = 0.0
        self._t0 = sim.now
        self._max = initial

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        now = self.sim.now
        self._area += self._value * (now - self._last_time)
        self._last_time = now
        self._value = value
        if value > self._max:
            self._max = value

    def add(self, delta: float) -> None:
        self.set(self._value + delta)

    def time_average(self) -> float:
        elapsed = self.sim.now - self._t0
        if elapsed <= 0:
            return self._value
        area = self._area + self._value * (self.sim.now - self._last_time)
        return area / elapsed

    @property
    def maximum(self) -> float:
        return self._max


class Histogram:
    """A fixed-bin histogram for latency / size distributions.

    The running mean uses Welford's update: a naive ``sum / n`` loses
    precision when values are large with a small spread (e.g.
    timestamps in ns), and exported ``_sum`` lines read ``mean * count``.
    """

    def __init__(self, bin_edges: List[float], name: str = "") -> None:
        if sorted(bin_edges) != list(bin_edges) or len(bin_edges) < 2:
            raise ValueError("bin_edges must be a sorted list of >= 2 edges")
        self.name = name
        self.edges = list(bin_edges)
        self.counts = [0] * (len(bin_edges) - 1)
        self.underflow = 0
        self.overflow = 0
        self._n = 0
        self._mean = 0.0

    def record(self, value: float) -> None:
        self._n += 1
        self._mean += (value - self._mean) / self._n
        if value < self.edges[0]:
            self.underflow += 1
            return
        if value >= self.edges[-1]:
            self.overflow += 1
            return
        # binary search
        lo, hi = 0, len(self.edges) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if value < self.edges[mid]:
                hi = mid
            else:
                lo = mid
        self.counts[lo] += 1

    @property
    def count(self) -> int:
        return self._n

    @property
    def mean(self) -> float:
        return self._mean if self._n else 0.0

    def percentile(self, p: float) -> float:
        """Approximate percentile from bin midpoints (p in [0, 100])."""
        # Lazy import: repro.telemetry's package init pulls in the hub,
        # which imports this module -- a module-level import here would
        # see a partially-initialised package during that cycle.
        from repro.telemetry.quantiles import histogram_percentile

        return histogram_percentile(
            self.edges, self.counts, self.underflow, self.overflow, p
        )


class StatRegistry:
    """A namespace of named statistics shared by a simulated machine."""

    #: default bin edges for latency-style histograms (ns, log-spaced)
    DEFAULT_EDGES = [0.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7]

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, TimeWeighted] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def gauge(self, name: str, initial: float = 0.0) -> TimeWeighted:
        if name not in self.gauges:
            self.gauges[name] = TimeWeighted(self.sim, initial, name)
        return self.gauges[name]

    def histogram(self, name: str, bin_edges: Optional[List[float]] = None) -> Histogram:
        if name not in self.histograms:
            self.histograms[name] = Histogram(
                list(bin_edges) if bin_edges is not None else list(self.DEFAULT_EDGES),
                name,
            )
        return self.histograms[name]

    def snapshot(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, c in self.counters.items():
            out[f"counter.{name}"] = c.value
        for name, g in self.gauges.items():
            out[f"gauge.{name}.avg"] = g.time_average()
            out[f"gauge.{name}.max"] = g.maximum
            out[f"gauge.{name}.last"] = g.value
        for name, h in self.histograms.items():
            out[f"histogram.{name}.count"] = float(h.count)
            out[f"histogram.{name}.mean"] = h.mean
            out[f"histogram.{name}.p50"] = h.percentile(50)
            out[f"histogram.{name}.p95"] = h.percentile(95)
            out[f"histogram.{name}.p99"] = h.percentile(99)
        return out
