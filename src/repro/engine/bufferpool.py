"""Buffer pool with CLOCK eviction.

The buffer pool caches a bounded number of pages between the executor
and the :class:`~repro.engine.disk.DiskManager`.  Page access goes
through :meth:`BufferPool.fetch`, which returns a pinned page; callers
unpin when done.  Eviction uses the classic CLOCK (second-chance)
algorithm — the same algorithm the paper uses to manage basic condition
parts inside a PMV, implemented independently there so the PMV layer
has no dependency on the storage stack.

Hit/miss counters let experiments confirm that PMV probes run without
physical I/O while full query execution does not.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.disk import DiskManager
from repro.engine.page import Page
from repro.errors import BufferPoolError

__all__ = ["BufferPool", "BufferPoolStats"]


@dataclass
class BufferPoolStats:
    """Logical page-request accounting."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


class _Frame:
    __slots__ = ("page", "pin_count", "referenced")

    def __init__(self, page: Page) -> None:
        self.page = page
        self.pin_count = 0
        self.referenced = True


class BufferPool:
    """A fixed-capacity page cache with CLOCK replacement.

    Parameters
    ----------
    disk:
        The backing disk manager; all misses and dirty-page flushes go
        through it (and are charged to its I/O stats).
    capacity:
        Maximum number of resident pages.  The paper's PostgreSQL
        default of 1,000 pages is mirrored in
        :class:`~repro.engine.database.Database`.
    """

    def __init__(self, disk: DiskManager, capacity: int = 1000) -> None:
        if capacity < 1:
            raise BufferPoolError("buffer pool capacity must be >= 1")
        self._disk = disk
        self._capacity = capacity
        self._frames: dict[int, _Frame] = {}
        self._clock_order: list[int] = []
        self._clock_hand = 0
        self.stats = BufferPoolStats()

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def page_size(self) -> int:
        return self._disk.page_size

    @property
    def resident_pages(self) -> int:
        return len(self._frames)

    # -- public API ------------------------------------------------------------

    def new_page(self) -> Page:
        """Allocate a fresh page and cache it pinned."""
        page = self._disk.allocate_page()
        self._admit(page, pinned=True)
        return page

    def fetch(self, page_no: int) -> Page:
        """Return page ``page_no`` pinned, reading from disk on a miss."""
        frame = self._frames.get(page_no)
        if frame is not None:
            self.stats.hits += 1
            frame.pin_count += 1
            frame.referenced = True
            return frame.page
        self.stats.misses += 1
        page = self._disk.read_page(page_no)
        self._admit(page, pinned=True)
        return page

    def unpin(self, page_no: int, dirty: bool = False) -> None:
        """Release one pin on ``page_no``; mark dirty if it was modified."""
        frame = self._frames.get(page_no)
        if frame is None or frame.pin_count <= 0:
            raise BufferPoolError(f"page {page_no} is not pinned")
        if dirty:
            frame.page.dirty = True
        frame.pin_count -= 1

    def flush_all(self) -> None:
        """Write every dirty resident page back to disk."""
        for frame in self._frames.values():
            if frame.page.dirty:
                self._disk.write_page(frame.page)

    def contains(self, page_no: int) -> bool:
        return page_no in self._frames

    # -- CLOCK internals -------------------------------------------------------

    def _admit(self, page: Page, pinned: bool) -> None:
        if page.page_no in self._frames:
            frame = self._frames[page.page_no]
            if pinned:
                frame.pin_count += 1
            frame.referenced = True
            return
        if len(self._frames) >= self._capacity:
            self._evict_one()
        frame = _Frame(page)
        frame.pin_count = 1 if pinned else 0
        self._frames[page.page_no] = frame
        self._clock_order.append(page.page_no)

    def _evict_one(self) -> None:
        """Run the clock hand until a victim with no pins and no
        reference bit is found; flush it if dirty."""
        if not self._clock_order:
            raise BufferPoolError("nothing to evict from an empty pool")
        # Each pass can clear one reference bit per frame, so 2 sweeps
        # suffice unless every frame is pinned.
        max_steps = 2 * len(self._clock_order) + 1
        for _ in range(max_steps):
            if self._clock_hand >= len(self._clock_order):
                self._clock_hand = 0
            page_no = self._clock_order[self._clock_hand]
            frame = self._frames[page_no]
            if frame.pin_count > 0:
                self._clock_hand += 1
                continue
            if frame.referenced:
                frame.referenced = False
                self._clock_hand += 1
                continue
            # Victim found.
            if frame.page.dirty:
                self._disk.write_page(frame.page)
            del self._frames[page_no]
            del self._clock_order[self._clock_hand]
            self.stats.evictions += 1
            return
        raise BufferPoolError("all buffer pool pages are pinned")
