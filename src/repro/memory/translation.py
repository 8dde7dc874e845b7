"""Progressive address translation.

The paper (Section 2) cites Katevenis's "interprocessor communication seen
as load-store instruction generalization": instead of translating a remote
virtual address to a final physical address at the source, the address is
translated *progressively* -- each level of the hierarchy maps the portion
of the address that selects the next level, so no node needs a global map
of the whole machine.

We model this as an ordered chain of :class:`TranslationStep`s.  Each step
owns a window of the incoming address space, rewrites matching addresses
into the next level's space, and charges a small per-step latency.  The
total translation cost therefore grows with hierarchy depth -- exactly the
property the FIG1/FIG3 experiments quantify -- while the per-node table
size stays constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class TranslationStep:
    """One level's window remap: [window_base, +window_size) -> +target_base."""

    name: str
    window_base: int
    window_size: int
    target_base: int
    latency_ns: float = 5.0

    def __post_init__(self) -> None:
        if self.window_size <= 0:
            raise ValueError("window_size must be positive")
        if self.window_base < 0 or self.target_base < 0:
            raise ValueError("bases must be non-negative")

    def matches(self, addr: int) -> bool:
        return self.window_base <= addr < self.window_base + self.window_size

    def apply(self, addr: int) -> int:
        if not self.matches(addr):
            raise ValueError(
                f"address {addr:#x} outside window of step {self.name!r}"
            )
        return addr - self.window_base + self.target_base


class ProgressiveTranslator:
    """A chain of per-level translation steps.

    ``translate`` walks the chain in order; each step whose window matches
    the *current* address rewrites it.  A remote access that crosses
    ``k`` hierarchy levels is rewritten ``k`` times; a purely local access
    matches no step and is free.
    """

    #: bound on the per-translator result memo; cleared wholesale when full
    _MEMO_MAX = 4096

    def __init__(self, steps: Sequence[TranslationStep] = ()) -> None:
        self.steps: List[TranslationStep] = list(steps)
        self.translations = 0
        self.total_steps_applied = 0
        # addr -> (final, latency, applied-names tuple).  The chain is
        # pure per address, so repeated pages skip the whole walk; stats
        # are still charged per call so reports are unchanged.
        self._memo: Dict[int, Tuple[int, float, Tuple[str, ...]]] = {}

    def translate(self, addr: int) -> Tuple[int, float, List[str]]:
        """Returns (final_address, total_latency_ns, applied step names)."""
        if addr < 0:
            raise ValueError(f"address must be non-negative, got {addr}")
        self.translations += 1
        hit = self._memo.get(addr)
        if hit is not None:
            final, latency, names = hit
            self.total_steps_applied += len(names)
            return final, latency, list(names)
        latency = 0.0
        applied: List[str] = []
        current = addr
        for step in self.steps:
            if step.matches(current):
                current = step.apply(current)
                latency += step.latency_ns
                applied.append(step.name)
                self.total_steps_applied += 1
        if len(self._memo) >= self._MEMO_MAX:
            self._memo.clear()
        self._memo[addr] = (current, latency, tuple(applied))
        return current, latency, applied

    @property
    def mean_steps_per_translation(self) -> float:
        if not self.translations:
            return 0.0
        return self.total_steps_applied / self.translations


def build_hierarchy_translator(
    levels: int,
    window_bits: int = 30,
    latency_per_level_ns: float = 5.0,
) -> ProgressiveTranslator:
    """Build a translator chain for a ``levels``-deep hierarchy.

    Level ``i`` owns the alias window ``[i * 2^window_bits, ...)`` and maps
    it one level down.  This produces the linear-in-depth translation cost
    of a tree-structured UNIMEM system: an address aliased at the top of an
    ``L``-level hierarchy is rewritten ``L`` times before it reaches DRAM.
    """
    if levels < 1:
        raise ValueError("need at least one level")
    window = 1 << window_bits
    steps = [
        TranslationStep(
            name=f"level{i}",
            window_base=(levels - i) * window,
            window_size=window,
            target_base=(levels - i - 1) * window,
            latency_ns=latency_per_level_ns,
        )
        for i in range(levels)
    ]
    return ProgressiveTranslator(steps)
