"""Heap file relations.

A :class:`HeapRelation` stores rows on slotted pages fetched through
the buffer pool, so every scan, insert, delete, and update generates
realistic page traffic.  Rows are addressed by :class:`RowId` so
secondary indexes can point at records without duplicating them.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence

from repro.engine.bufferpool import BufferPool
from repro.engine.page import PAGE_HEADER, SLOT_OVERHEAD
from repro.engine.row import Row, RowId
from repro.engine.schema import Schema
from repro.errors import PageFullError, StorageError

__all__ = ["HeapRelation"]


class HeapRelation:
    """An append-friendly heap of rows over slotted pages.

    Parameters
    ----------
    name:
        Relation name (also baked into the schema for qualified lookup).
    schema:
        Column definitions; rebound to ``name`` if needed.
    buffer_pool:
        The buffer pool all page access goes through.
    """

    def __init__(self, name: str, schema: Schema, buffer_pool: BufferPool) -> None:
        self.name = name
        self.schema = schema if schema.relation_name == name else schema.rename(name)
        self._pool = buffer_pool
        self._page_nos: list[int] = []
        # Pages with free space, checked before allocating a new page.
        # The list preserves LIFO try-order; the set makes the
        # membership test on every delete O(1).
        self._open_page_nos: list[int] = []
        self._open_page_set: set[int] = set()
        self._row_count = 0

    # -- properties -------------------------------------------------------------

    @property
    def row_count(self) -> int:
        return self._row_count

    @property
    def page_count(self) -> int:
        return len(self._page_nos)

    def __len__(self) -> int:
        return self._row_count

    # -- mutation -----------------------------------------------------------------

    def _retire_open_page(self, page_no: int) -> None:
        """Stop offering ``page_no`` for inserts (it is full enough)."""
        # Insert paths always retire the page they just tried, which is
        # the last entry; fall back to a scan only if that ever changes.
        if self._open_page_nos and self._open_page_nos[-1] == page_no:
            self._open_page_nos.pop()
        else:
            self._open_page_nos.remove(page_no)
        self._open_page_set.discard(page_no)

    def _reopen_page(self, page_no: int) -> None:
        """Offer ``page_no`` for inserts again (a delete freed space)."""
        if page_no not in self._open_page_set:
            self._open_page_nos.append(page_no)
            self._open_page_set.add(page_no)

    def _allocate_page(self):
        """Allocate, register, and return a new (pinned) page."""
        page = self._pool.new_page()
        self._page_nos.append(page.page_no)
        self._open_page_nos.append(page.page_no)
        self._open_page_set.add(page.page_no)
        return page

    def insert(self, values: Sequence[Any]) -> RowId:
        """Validate and insert a row; return its :class:`RowId`."""
        payload = self.schema.validate_values(values)
        size = Row(payload, self.schema).byte_size()
        self._check_fits(size)
        # Try pages known to have space, most recently used last.
        while self._open_page_nos:
            page_no = self._open_page_nos[-1]
            page = self._pool.fetch(page_no)
            try:
                if page.fits(size):
                    slot_no = page.insert(payload, size)
                    self._pool.unpin(page_no, dirty=True)
                    self._row_count += 1
                    return RowId(page_no, slot_no)
                self._retire_open_page(page_no)
                self._pool.unpin(page_no)
            except PageFullError:
                self._retire_open_page(page_no)
                self._pool.unpin(page_no)
        page = self._allocate_page()
        slot_no = page.insert(payload, size)
        self._pool.unpin(page.page_no, dirty=True)
        self._row_count += 1
        return RowId(page.page_no, slot_no)

    def _check_fits(self, size: int) -> None:
        """Refuse a row that fits on no page *before* anything mutates:
        a statement that fails must leave the heap — rows, open-page
        list, allocated pages — exactly as it found it, or the live
        layout drifts from what the WAL replays to."""
        if size + SLOT_OVERHEAD > self._pool.page_size - PAGE_HEADER:
            raise StorageError(f"row of {size}B does not fit on an empty page")

    def insert_many(self, rows: Iterator[Sequence[Any]] | Sequence[Sequence[Any]]) -> list[RowId]:
        """Bulk insert; returns the row ids in input order.

        Keeps the current page pinned across consecutive rows instead
        of re-fetching it through the buffer pool per row, so a bulk
        load touches each destination page once.
        """
        schema = self.schema
        ids: list[RowId] = []
        page = None
        page_no = -1
        page_dirty = False
        try:
            for values in rows:
                payload = schema.validate_values(values)
                size = Row(payload, schema).byte_size()
                while True:
                    if page is None:
                        if self._open_page_nos:
                            page_no = self._open_page_nos[-1]
                            page = self._pool.fetch(page_no)
                        else:
                            page = self._allocate_page()
                            page_no = page.page_no
                        page_dirty = False
                    if page.fits(size):
                        try:
                            slot_no = page.insert(payload, size)
                        except PageFullError:
                            pass  # fall through to retire the page
                        else:
                            page_dirty = True
                            ids.append(RowId(page_no, slot_no))
                            self._row_count += 1
                            break
                    elif page.slot_count == 0:
                        # An empty page cannot hold this row at all.
                        raise StorageError(
                            f"row of {size}B does not fit on an empty page"
                        )
                    self._retire_open_page(page_no)
                    self._pool.unpin(page_no, dirty=page_dirty)
                    page = None
        finally:
            if page is not None:
                self._pool.unpin(page_no, dirty=page_dirty)
        return ids

    def delete(self, row_id: RowId) -> Row:
        """Delete the record at ``row_id``; return the removed row."""
        self._check_owned(row_id)
        page = self._pool.fetch(row_id.page_no)
        try:
            payload = page.delete(row_id.slot_no)
        finally:
            self._pool.unpin(row_id.page_no, dirty=True)
        self._reopen_page(row_id.page_no)
        self._row_count -= 1
        return Row(payload, self.schema)

    def update(self, row_id: RowId, **changes: Any) -> tuple[Row, Row, RowId]:
        """Update named columns of the record at ``row_id``.

        Returns ``(old_row, new_row, new_row_id)``.  If the grown record
        no longer fits on its page it is relocated (delete + insert), so
        the returned row id may differ from the input — callers must
        re-point their indexes.
        """
        old_row = self.fetch(row_id)
        new_row = old_row.replace(**changes)
        payload = self.schema.validate_values(new_row.values)
        size = new_row.byte_size()
        self._check_fits(size)
        page = self._pool.fetch(row_id.page_no)
        try:
            page.update(row_id.slot_no, payload, size)
            self._pool.unpin(row_id.page_no, dirty=True)
            return old_row, new_row, row_id
        except PageFullError:
            self._pool.unpin(row_id.page_no)
        # Relocate.
        self.delete(row_id)
        new_id = self.insert(payload)
        return old_row, new_row, new_id

    def truncate(self) -> None:
        """Remove all rows (pages stay allocated but empty)."""
        for page_no in self._page_nos:
            page = self._pool.fetch(page_no)
            for slot_no, _ in list(page.live_slots()):
                page.delete(slot_no)
            self._pool.unpin(page_no, dirty=True)
        self._open_page_nos = list(self._page_nos)
        self._open_page_set = set(self._page_nos)
        self._row_count = 0

    # -- access ---------------------------------------------------------------------

    def fetch(self, row_id: RowId) -> Row:
        """Return the row stored at ``row_id``."""
        self._check_owned(row_id)
        page = self._pool.fetch(row_id.page_no)
        try:
            payload = page.read(row_id.slot_no)
        finally:
            self._pool.unpin(row_id.page_no)
        if payload is None:
            raise StorageError(f"{self.name}: {row_id} is deleted")
        return Row(payload, self.schema)

    def scan(self) -> Iterator[tuple[RowId, Row]]:
        """Full scan in physical order, yielding ``(row_id, row)``."""
        for page_no in self._page_nos:
            page = self._pool.fetch(page_no)
            try:
                live = list(page.live_slots())
            finally:
                self._pool.unpin(page_no)
            for slot_no, payload in live:
                yield RowId(page_no, slot_no), Row(payload, self.schema)

    def scan_rows(self) -> Iterator[Row]:
        """Full scan yielding rows only."""
        for _, row in self.scan():
            yield row

    def fetch_payload(self, row_id: RowId) -> tuple:
        """Return the raw value tuple at ``row_id`` (no :class:`Row`).

        The columnar pipeline's fetch primitive — identical page
        traffic to :meth:`fetch`, minus the per-record object.
        """
        self._check_owned(row_id)
        page = self._pool.fetch(row_id.page_no)
        try:
            payload = page.read(row_id.slot_no)
        finally:
            self._pool.unpin(row_id.page_no)
        if payload is None:
            raise StorageError(f"{self.name}: {row_id} is deleted")
        return payload

    def fetch_payloads(self, row_ids: Sequence[RowId]) -> list[tuple]:
        """Fetch many records' value tuples, in input order.

        Consecutive row ids on the same page are served under a single
        pin, so an index probe whose postings cluster physically
        touches each page once instead of once per record.
        """
        payloads: list[tuple] = []
        page = None
        page_no = -1
        try:
            for row_id in row_ids:
                if page is None or row_id.page_no != page_no:
                    if page is not None:
                        self._pool.unpin(page_no)
                        page = None
                    self._check_owned(row_id)
                    page_no = row_id.page_no
                    page = self._pool.fetch(page_no)
                payload = page.read(row_id.slot_no)
                if payload is None:
                    raise StorageError(f"{self.name}: {row_id} is deleted")
                payloads.append(payload)
        finally:
            if page is not None:
                self._pool.unpin(page_no)
        return payloads

    def scan_payload_chunks(self) -> Iterator[list[tuple]]:
        """Full scan yielding one list of live value tuples per page.

        Each page is fetched exactly once; empty pages yield nothing.
        No :class:`Row` objects: this feeds ``SeqScan`` and hash-join
        builds, which coalesce chunks up to their batch target.
        """
        for page_no in self._page_nos:
            page = self._pool.fetch(page_no)
            try:
                chunk = [payload for _, payload in page.live_slots()]
            finally:
                self._pool.unpin(page_no)
            if chunk:
                yield chunk

    def find(self, predicate: Callable[[Row], bool]) -> Iterator[tuple[RowId, Row]]:
        """Scan filtered by an arbitrary Python predicate."""
        for row_id, row in self.scan():
            if predicate(row):
                yield row_id, row

    # -- internals -------------------------------------------------------------------

    def _check_owned(self, row_id: RowId) -> None:
        if row_id.page_no not in self._page_set:
            raise StorageError(f"{self.name}: page {row_id.page_no} not in relation")

    @property
    def _page_set(self) -> set[int]:
        # Small relations dominate tests; recompute lazily but cache on
        # the instance dict to keep hot paths fast.  The cache is keyed
        # on the page list's identity AND length: length catches
        # in-place appends (inserts, snapshot restore), identity catches
        # wholesale list replacement — including an equal-length page
        # swap, which a length-only key would wrongly validate against
        # the stale set.  The keyed list is held by strong reference so
        # the identity test cannot be fooled by id reuse.
        page_nos = self._page_nos
        if (
            getattr(self, "_page_set_src", None) is not page_nos
            or len(self._page_set_cache) != len(page_nos)
        ):
            self._page_set_cache = set(page_nos)
            self._page_set_src = page_nos
        return self._page_set_cache

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HeapRelation({self.name!r}, rows={self._row_count}, pages={self.page_count})"
