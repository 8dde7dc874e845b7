"""A ledger of energy spent, by component category."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict

from repro.telemetry.quantiles import fold_sum


class EnergyLedger:
    """Accumulates energy (pJ) under hierarchical category names.

    Categories are dotted paths ("worker0.cpu", "worker0.fabric",
    "interconnect.l1"); queries can aggregate by prefix.
    """

    def __init__(self) -> None:
        self._pj: Dict[str, float] = defaultdict(float)

    def add(self, category: str, picojoules: float) -> None:
        if picojoules < 0:
            raise ValueError(f"negative energy {picojoules} for {category!r}")
        self._pj[category] += picojoules

    def total_pj(self, prefix: str = "") -> float:
        """Energy under ``prefix`` (everything when empty), summed left
        to right in category insertion order (:func:`fold_sum`)."""
        if not prefix:
            return fold_sum(self._pj.values())
        return fold_sum(
            v
            for k, v in self._pj.items()
            if k == prefix or k.startswith(prefix + ".")
        )

    def total_joules(self, prefix: str = "") -> float:
        return self.total_pj(prefix) * 1e-12

    def breakdown(self, depth: int = 1) -> Dict[str, float]:
        """Aggregate to the first ``depth`` path components."""
        if depth < 1:
            raise ValueError("depth must be >= 1")
        out: Dict[str, float] = defaultdict(float)
        for k, v in self._pj.items():
            key = ".".join(k.split(".")[:depth])
            out[key] += v
        return dict(out)

    def categories(self) -> Dict[str, float]:
        return dict(self._pj)

    def merge(self, other: "EnergyLedger") -> None:
        for k, v in other._pj.items():
            self._pj[k] += v

    def reset(self) -> None:
        self._pj.clear()

    def mean_power_mw(self, elapsed_ns: float, prefix: str = "") -> float:
        """Average power over an interval: pJ / ns = mW."""
        if elapsed_ns <= 0:
            raise ValueError(f"elapsed time must be positive, got {elapsed_ns}")
        return self.total_pj(prefix) / elapsed_ns
