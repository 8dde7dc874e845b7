"""A set-associative write-back cache model.

Used for Worker CPU caches and for accelerator-local caches ("each
accelerator can also cache its local data", Section 4.1).  The model keeps
tags only -- data payloads live with the buffers -- and reports hits,
misses, and dirty evictions so callers can charge the right latency and
energy.

Replacement is true LRU within a set, which is what the small ACE-port
caches on ARM CCI-class systems approximate.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class CacheGeometry:
    """Size/shape of a cache.  Defaults model a 32 KiB 4-way L1."""

    size_bytes: int = 32 * 1024
    line_bytes: int = 64
    associativity: int = 4

    def __post_init__(self) -> None:
        if self.line_bytes <= 0 or self.size_bytes <= 0 or self.associativity <= 0:
            raise ValueError("cache geometry fields must be positive")
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ValueError(
                "size must be a multiple of line_bytes * associativity"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    invalidations: int = 0
    flushes: int = 0


@dataclass
class _Line:
    tag: int
    dirty: bool = False


class Cache:
    """Tag-only set-associative LRU cache.

    ``access`` returns ``(hit, writeback_line_addr)``:  ``writeback``
    is the address of a dirty line evicted by this access (or ``None``).
    """

    def __init__(self, geometry: CacheGeometry = CacheGeometry(), name: str = "") -> None:
        self.geometry = geometry
        self.name = name
        self.stats = CacheStats()
        self.enabled = True
        # each set: OrderedDict tag -> _Line, LRU first.  Sets are
        # materialized lazily: large machines instantiate hundreds of
        # caches whose sets are mostly never touched, and an eager list of
        # num_sets OrderedDicts dominated construction time.
        self._sets: Dict[int, "OrderedDict[int, _Line]"] = {}

    # ------------------------------------------------------------------
    def _index_tag(self, addr: int) -> Tuple[int, int]:
        line = addr // self.geometry.line_bytes
        return line % self.geometry.num_sets, line // self.geometry.num_sets

    def _line_addr(self, index: int, tag: int) -> int:
        return (tag * self.geometry.num_sets + index) * self.geometry.line_bytes

    # ------------------------------------------------------------------
    def access(self, addr: int, is_write: bool = False) -> Tuple[bool, Optional[int]]:
        """Look up one address.  Disabled caches always miss, never fill.

        A disabled cache models the ACE-lite case of the paper: a *remote*
        reconfigurable block "should disable its data cache" because the
        L1 interconnect port supports no snooping (Section 4.1).
        """
        if not self.enabled:
            self.stats.misses += 1
            return False, None
        index, tag = self._index_tag(addr)
        cset = self._sets.get(index)
        if cset is None:
            cset = self._sets[index] = OrderedDict()
        line = cset.get(tag)
        if line is not None:
            cset.move_to_end(tag)
            if is_write:
                line.dirty = True
            self.stats.hits += 1
            return True, None
        # miss: fill, possibly evicting LRU
        self.stats.misses += 1
        writeback = None
        if len(cset) >= self.geometry.associativity:
            old_tag, old_line = cset.popitem(last=False)
            if old_line.dirty:
                self.stats.writebacks += 1
                writeback = self._line_addr(index, old_tag)
        cset[tag] = _Line(tag, dirty=is_write)
        return False, writeback

    def touch_range(self, base: int, size: int, is_write: bool = False) -> Tuple[int, int]:
        """Access every line of ``[base, base+size)``; returns (hits, misses)."""
        if size <= 0:
            return 0, 0
        hits = misses = 0
        line_bytes = self.geometry.line_bytes
        first = base // line_bytes
        last = (base + size - 1) // line_bytes
        for line_no in range(first, last + 1):
            hit, _ = self.access(line_no * line_bytes, is_write)
            if hit:
                hits += 1
            else:
                misses += 1
        return hits, misses

    # ------------------------------------------------------------------
    def invalidate(self, addr: int) -> bool:
        """Drop one line (no writeback -- caller must have flushed)."""
        index, tag = self._index_tag(addr)
        cset = self._sets.get(index)
        if cset is not None and tag in cset:
            del cset[tag]
            self.stats.invalidations += 1
            return True
        return False

    def flush(self) -> int:
        """Write back and drop everything; returns the number of dirty lines."""
        dirty = 0
        for cset in self._sets.values():
            for line in cset.values():
                if line.dirty:
                    dirty += 1
        self._sets.clear()
        self.stats.writebacks += dirty
        self.stats.flushes += 1
        return dirty

    def flush_page(self, page_base: int, page_size: int) -> int:
        """Write back and drop all lines of one page; returns dirty count."""
        dirty = 0
        line_bytes = self.geometry.line_bytes
        for offset in range(0, page_size, line_bytes):
            addr = page_base + offset
            index, tag = self._index_tag(addr)
            cset = self._sets.get(index)
            if cset is None:
                continue
            line = cset.get(tag)
            if line is not None:
                if line.dirty:
                    dirty += 1
                del cset[tag]
        self.stats.writebacks += dirty
        return dirty

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently held."""
        return sum(len(s) for s in self._sets.values())

    def contents(self) -> Dict[int, bool]:
        """Map of line address -> dirty, for tests."""
        out: Dict[int, bool] = {}
        for index, cset in self._sets.items():
            for tag, line in cset.items():
                out[self._line_addr(index, tag)] = line.dirty
        return out
