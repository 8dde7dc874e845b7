"""Pages and the UNIMEM single-cacheable-owner registry.

From the paper (Section 2):

    "From the point of view of a processor in a multi-node machine, a
    memory page can be cacheable at the local coherent node or at a remote
    coherent node, but not at both.  This is the basis of the UNIMEM
    consistency model, which eliminates global-scope cache coherence
    protocols providing a scalable solution."

:class:`PageRegistry` enforces exactly that invariant: every page has one
*cacheable home* (a coherence island id); any other node must access it
uncached.  Moving the home is an explicit, costed operation (it requires a
flush at the old home).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set


class PageOwnershipError(RuntimeError):
    """Raised when the single-cacheable-owner invariant would be violated."""


@dataclass
class Page:
    """One global page.

    ``backing_worker`` is where the DRAM lives (fixed), ``cacheable_home``
    is the coherence island currently allowed to cache it (movable).
    """

    number: int
    backing_worker: int
    cacheable_home: int
    dirty: bool = False
    migrations: int = 0
    uncached_accessors: Set[int] = field(default_factory=set)


class PageRegistry:
    """Tracks cacheable homes for every touched page of a PGAS domain.

    Pages are materialized lazily: a page not yet in the registry has its
    backing Worker as its default cacheable home (local data is locally
    cacheable with zero setup cost).
    """

    def __init__(self) -> None:
        self._pages: Dict[int, Page] = {}
        self.home_moves = 0
        self.flushes = 0

    def __len__(self) -> int:
        return len(self._pages)

    def lookup(self, page_number: int) -> Optional[Page]:
        return self._pages.get(page_number)

    def get_or_create(self, page_number: int, backing_worker: int) -> Page:
        page = self._pages.get(page_number)
        if page is None:
            page = Page(
                number=page_number,
                backing_worker=backing_worker,
                cacheable_home=backing_worker,
            )
            self._pages[page_number] = page
        return page

    def cacheable_home(self, page_number: int, backing_worker: int) -> int:
        """The coherence island allowed to cache this page."""
        return self.get_or_create(page_number, backing_worker).cacheable_home

    def may_cache(self, page_number: int, backing_worker: int, node: int) -> bool:
        """May ``node`` keep this page in its caches?"""
        return self.cacheable_home(page_number, backing_worker) == node

    def move_home(
        self, page_number: int, backing_worker: int, new_home: int
    ) -> Page:
        """Re-home a page to a different coherence island.

        The invariant is preserved because the move is atomic: the old home
        must flush (modelled by the ``flushes`` counter and the ``dirty``
        bit) before the new home may cache.  There is never a moment when
        two islands may cache the page.
        """
        page = self.get_or_create(page_number, backing_worker)
        if page.cacheable_home == new_home:
            return page
        if page.dirty:
            self.flushes += 1
            page.dirty = False
        page.cacheable_home = new_home
        page.migrations += 1
        self.home_moves += 1
        return page

    def record_access(
        self, page_number: int, backing_worker: int, node: int, is_write: bool
    ) -> bool:
        """Record an access; returns ``True`` if ``node`` may use its cache.

        Non-home accessors are recorded (they reach the page uncached, via
        ACE-lite style transactions) so migration policies can detect
        sharing patterns.
        """
        page = self.get_or_create(page_number, backing_worker)
        cacheable = page.cacheable_home == node
        if is_write and cacheable:
            page.dirty = True
        if not cacheable:
            page.uncached_accessors.add(node)
        return cacheable

    def check_invariant(self) -> bool:
        """The single-cacheable-owner invariant is structural (one field),
        but we expose an explicit check for property-based tests: no page
        lists its own home among its *uncached* accessors while dirty state
        is attributed elsewhere."""
        for page in self._pages.values():
            if page.cacheable_home in page.uncached_accessors:
                # A node both caching and recorded as uncached accessor would
                # indicate a missed re-home; allowed only if the home moved
                # toward a previous uncached accessor.
                if page.migrations == 0:
                    return False
        return True

    def pages_with_remote_traffic(self) -> Dict[int, int]:
        """Map page -> number of distinct uncached (remote) accessors."""
        return {
            n: len(p.uncached_accessors)
            for n, p in self._pages.items()
            if p.uncached_accessors
        }
