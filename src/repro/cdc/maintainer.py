"""The background drain: a cursor on the WAL.

An :class:`AsyncMaintainer` reads the database's write-ahead log after
its registered views' cursors and applies the deltas it finds there.
Registration flips the view's maintainer into *async mode*: relevant
changes stop taking the X lock on the write path (unless the
heavy-light splitter routes them eager), and the log keeps each
statement's :class:`~repro.engine.transactions.Change` on its resident
record (:attr:`~repro.engine.wal.WriteAheadLog.change_feed`) until every
registered view has read past it.

Lock discipline mirrors a writing statement, in the mandatory order:
the drain takes the view's X lock **first** (through the maintainer's
breaker-gated :meth:`~repro.core.maintenance.PMVMaintainer._acquire_x`,
so an open circuit breaker collapses it to a single no-wait attempt),
and only then enters the statement latch to mutate the view.  A lock
denial leaves that view's cursor where it was and yields — the next
drain reads the same records again.

Cursor rules (DESIGN.md §13):

- ``view.applied_lsn`` is the view's cursor: every record at or below
  it is reflected in the view (applied, applied eagerly by the hot
  path, or irrelevant to it).  Cursors only move forward, and only
  under the statement latch;
- the drain reads no further than a *horizon*, the WAL's last LSN read
  under the statement latch: no statement at or below it is then
  between its WAL append and its eager apply;
- a fail-safe clear (organic apply failure) empties the view, and the
  empty subset is correct *as of now*: the cursor jumps to the current
  LSN;
- after a crash, views restart empty and a fresh drain starts at the
  recovered WAL end — nothing to replay, staleness zero by
  construction.
"""

from __future__ import annotations

import threading
from itertools import islice
from typing import Iterator

from repro.cdc.split import HeavyLightSplitter
from repro.core.maintenance import PMVMaintainer
from repro.engine.database import Database
from repro.engine.wal import LogRecord
from repro.errors import LockError, MaintenanceError

__all__ = ["AsyncMaintainer"]


class AsyncMaintainer:
    """Reads the WAL after each view's cursor and applies the deltas."""

    def __init__(
        self,
        database: Database,
        splitter: HeavyLightSplitter | None = None,
        drain_batch: int = 1,
    ) -> None:
        if database.wal is None:
            raise MaintenanceError(
                "async maintenance reads its changes from the WAL; a "
                "database without one has no change feed"
            )
        self.database = database
        self.splitter = splitter
        # Records applied per X-lock acquisition: the drain takes each
        # view's X lock once per batch instead of once per record.
        if drain_batch < 1:
            raise MaintenanceError("drain_batch must be >= 1")
        self.drain_batch = drain_batch
        self._registered: dict[str, PMVMaintainer] = {}
        # One drain at a time: LSN order is only meaningful single-file.
        self._drain_mutex = threading.Lock()
        # Every record at or below this LSN has had its change dropped.
        self._released_lsn = 0
        self.records_drained = 0
        self.drain_batches = 0
        self.deltas_applied = 0
        self.eager_skips = 0
        self.lock_yields = 0
        self.failsafe_clears = 0
        self.advance_skips = 0

    # -- registration ----------------------------------------------------------

    def register(
        self,
        maintainer: PMVMaintainer,
        splitter: HeavyLightSplitter | None = None,
    ) -> None:
        """Switch one view to async maintenance.

        Accepts a :class:`PMVMaintainer` or anything carrying one as
        ``.maintainer`` (a ``ManagedView``).  The view's cursor starts
        at the current LSN: everything logged up to here was applied
        eagerly, so it is fresh by definition and the drain never reads
        it.  The LSN read and the cursor set happen under the statement
        latch, so no statement can commit between them.  A log feeds
        one drain: each drops the changes its own views have passed.
        """
        if self.database.wal.change_feed not in (None, self):
            raise MaintenanceError(
                "this WAL already feeds another drain; register the view "
                "with that one"
            )
        if not isinstance(maintainer, PMVMaintainer):
            maintainer = maintainer.maintainer
        view = maintainer.view
        maintainer.async_mode = True
        maintainer.splitter = splitter if splitter is not None else self.splitter
        view.async_maintenance = True
        wal = self.database.wal
        with self.database.statement_latch:
            lsn = wal.last_lsn
            if not self._registered:
                self._released_lsn = lsn
            view.applied_lsn = lsn
            self._registered[view.name] = maintainer
            wal.change_feed = self
        self._update_retention()

    def lag(self, view) -> int:
        """LSNs the view's cursor trails the current LSN by."""
        return max(0, self.database.current_lsn() - view.applied_lsn)

    def _floor(self) -> int:
        """The slowest registered view's cursor."""
        return min(m.view.applied_lsn for m in self._registered.values())

    # -- draining --------------------------------------------------------------

    def drain(self, max_records: int | None = None) -> int:
        """Apply up to ``max_records`` logged changes in LSN order.

        Reads the records after the slowest cursor, up to the horizon,
        in batches of up to ``drain_batch`` changes: one X-lock
        acquisition per view per batch instead of per record, which is
        what makes a deep backlog drain cheap.  Records without a change
        (DDL, checkpoints) are passed over uncounted.  Returns the
        number of changes processed.  Stops early when a view's X lock
        is denied (``lock_yields``; that view's cursor stays put, so the
        next drain reads the same records).  Returns 0 at once when
        another drain is running, or when a statement holds the latch so
        the horizon cannot be read (``advance_skips``): blocking there
        could deadlock against a writer parked by the interleaving
        scheduler, and the next drain catches up.
        """
        if not self._drain_mutex.acquire(blocking=False):
            return 0
        try:
            if not self._registered:
                return 0
            horizon = self._read_horizon()
            if horizon is None:
                self.advance_skips += 1
                return 0
            feed = self._feed(horizon)
            drained = 0
            while max_records is None or drained < max_records:
                limit = self.drain_batch
                if max_records is not None:
                    limit = min(limit, max_records - drained)
                batch = list(islice(feed, limit))
                if not batch:
                    # Every change up to the horizon is in: the cursors
                    # pass the records without one too.
                    for maintainer in self._registered.values():
                        self._advance(maintainer, horizon)
                    break
                try:
                    self._apply_batch(batch)
                except LockError:
                    self.lock_yields += 1
                    break
                self.records_drained += len(batch)
                self.drain_batches += 1
                drained += len(batch)
            self._release_changes()
            self._update_retention()
            return drained
        finally:
            self._drain_mutex.release()

    def _read_horizon(self) -> int | None:
        """The WAL's last LSN, read under the statement latch (acquired
        non-blocking; ``None`` when a statement holds it).  Every
        statement at or below it has finished its eager apply."""
        latch = self.database.statement_latch
        if not latch.acquire(blocking=False):
            return None
        try:
            return self.database.wal.last_lsn
        finally:
            latch.release()

    def _feed(self, horizon: int) -> Iterator[LogRecord]:
        """The records carrying a change, after the slowest cursor and
        up to ``horizon``, oldest first."""
        for record in self.database.wal.records(after_lsn=self._floor()):
            if record.lsn > horizon:
                return
            if record.change is not None:
                yield record

    def _apply_batch(self, batch: list[LogRecord]) -> None:
        """Apply a batch of records to every registered view.

        Per view: records at or below its cursor are skipped, so are
        those the hot path applied eagerly (``eager_skips``) and those
        irrelevant to it; the relevant rest is applied under ONE X-lock
        acquisition, and then the view's cursor moves to the batch end.
        A later view's lock denial leaves the earlier views' cursors
        advanced, so no delta is ever applied twice.
        """
        end = batch[-1].lsn
        for maintainer in self._registered.values():
            view = maintainer.view
            relevant: list[LogRecord] = []
            for record in batch:
                if record.lsn <= view.applied_lsn:
                    continue
                change = record.change
                if not maintainer._needs_maintenance(change):
                    continue
                if change.prepared.get(maintainer, (False, None))[0]:
                    self.eager_skips += 1
                else:
                    relevant.append(record)
            if relevant:
                self._apply_deltas(maintainer, relevant)
            self._advance(maintainer, end)

    def _apply_deltas(
        self, maintainer: PMVMaintainer, records: list[LogRecord]
    ) -> None:
        """Apply ``records`` to one view under a single X lock.

        The statement latch is still taken per record (the latch guards
        physical structures and must stay short); only the *logical*
        lock acquisition — the expensive, possibly-waiting step — is
        amortized across the batch.
        """
        txn = self.database.begin()
        try:
            maintainer._acquire_x(txn)
        except BaseException:
            txn.abort()
            raise
        try:
            for record in records:
                with self.database.statement_latch:
                    if maintainer.apply_async(record.change):
                        self.deltas_applied += 1
                    else:
                        self.failsafe_clears += 1
        finally:
            txn.commit()

    def _advance(self, maintainer: PMVMaintainer, lsn: int) -> None:
        with self.database.statement_latch:
            if maintainer.view.applied_lsn < lsn:
                maintainer.view.applied_lsn = lsn

    def _release_changes(self) -> None:
        """Drop the change of every record all registered views have
        read past: the log keeps only what some cursor still needs."""
        floor = self._floor()
        for record in self.database.wal.records(after_lsn=self._released_lsn):
            if record.lsn > floor:
                break
            record.change = None
        self._released_lsn = max(self._released_lsn, floor)

    def _update_retention(self) -> None:
        """Publish the slowest cursor to the WAL retention registry, so
        segment reclamation never retires a record some registered view
        has not read yet (a reclaimed record loses its change)."""
        self.database.wal.retention.update("cdc", self._floor())

    def drain_to_convergence(self, max_rounds: int = 1000) -> int:
        """Drain until every cursor reaches the current LSN; returns
        the changes processed.

        Bounded by ``max_rounds`` drains so a reader that never
        releases its S lock cannot hang the caller.
        """
        total = 0
        for _ in range(max_rounds):
            total += self.drain()
            if not self._registered or self._floor() >= self.database.current_lsn():
                return total
        raise MaintenanceError(
            f"drain did not converge after {max_rounds} rounds "
            f"({self.database.current_lsn() - self._floor()} LSNs behind)"
        )

    # -- introspection ---------------------------------------------------------

    def stats(self) -> dict:
        views = {name: m.view.applied_lsn for name, m in self._registered.items()}
        high = self.database.current_lsn()
        return {
            "records_drained": self.records_drained,
            "cdc_drain_batches": self.drain_batches,
            "drain_batch": self.drain_batch,
            "deltas_applied": self.deltas_applied,
            "eager_skips": self.eager_skips,
            "lock_yields": self.lock_yields,
            "failsafe_clears": self.failsafe_clears,
            "advance_skips": self.advance_skips,
            "lag": high - min(views.values(), default=high),
            "high_watermark": high,
            "views": views,
        }
