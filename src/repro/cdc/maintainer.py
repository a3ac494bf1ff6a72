"""The background drain: LSN-ordered async application of the feed.

An :class:`AsyncMaintainer` owns one :class:`~repro.cdc.outbox.ChangeOutbox`
and a set of registered views.  Registration flips the view's
maintainer into *async mode*: relevant changes stop taking the X lock
on the write path (unless the heavy-light splitter routes them eager)
and are instead applied here, one feed record at a time, oldest first.

Lock discipline mirrors a writing statement, in the mandatory order:
the drain takes the view's X lock **first** (through the maintainer's
breaker-gated :meth:`~repro.core.maintenance.PMVMaintainer._acquire_x`,
so an open circuit breaker collapses it to a single no-wait attempt),
and only then enters the statement latch to mutate the view.  A lock
denial requeues the record at the feed head and yields — the next
drain retries it, and ``applied_views`` guarantees the retry never
applies a delta twice.

Watermark rules (DESIGN.md §13):

- ``view.applied_lsn`` advances to a record's LSN once the record is
  applied to (or provably irrelevant for) that view — records are
  drained oldest-first, so the watermark is monotone;
- a fail-safe clear (organic apply failure) empties the view, and the
  empty subset is correct *as of now*: the watermark jumps to the
  current LSN;
- after a crash, views restart empty and a fresh feed starts at the
  recovered WAL end — nothing to replay, staleness zero by
  construction.
"""

from __future__ import annotations

import threading

from repro.cdc.outbox import ChangeOutbox, OutboxRecord
from repro.cdc.split import HeavyLightSplitter
from repro.core.maintenance import PMVMaintainer
from repro.engine.database import Database
from repro.errors import LockError, MaintenanceError

__all__ = ["AsyncMaintainer"]


class AsyncMaintainer:
    """Drains the change feed and applies deltas to registered views."""

    def __init__(
        self,
        database: Database,
        outbox: ChangeOutbox | None = None,
        splitter: HeavyLightSplitter | None = None,
        drain_batch: int = 1,
    ) -> None:
        self.database = database
        if outbox is None:
            outbox = database.outbox if database.outbox is not None else ChangeOutbox()
        self.outbox = outbox
        # The database's DML appends to this feed from now on.
        database.outbox = outbox
        # A spilling outbox rehydrates rows through the catalog.
        if outbox.schema_resolver is None:
            outbox.schema_resolver = (
                lambda name: database.catalog.relation(name).schema
            )
        self.splitter = splitter
        # Records applied per X-lock acquisition: the drain takes each
        # view's X lock once per batch instead of once per record.
        if drain_batch < 1:
            raise MaintenanceError("drain_batch must be >= 1")
        self.drain_batch = drain_batch
        self._registered: dict[str, PMVMaintainer] = {}
        # One drain at a time: LSN order is only meaningful single-file.
        self._drain_mutex = threading.Lock()
        self._last_drained_lsn = 0
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
        ``.maintainer`` (a ``ManagedView``).  The view's watermark
        starts at the current LSN: everything already applied eagerly
        up to this point is, by definition, fresh.  The feed may still
        hold records at or below that LSN (the outbox records every
        change once it is attached, even while views are eager), so
        those records are stamped as applied for the new view — the
        eager path already absorbed them, and a drain that applied them
        again would double-apply the deltas.  LSN read and backlog
        stamp happen under the statement latch so no statement can
        commit between them.
        """
        if not isinstance(maintainer, PMVMaintainer):
            maintainer = maintainer.maintainer
        view = maintainer.view
        maintainer.async_mode = True
        maintainer.splitter = splitter if splitter is not None else self.splitter
        maintainer.outbox = self.outbox
        view.async_maintenance = True
        with self.database.statement_latch:
            lsn = self.database.current_lsn()
            self.outbox.mark_applied_up_to(lsn, view.name)
            view.applied_lsn = lsn
            self._registered[view.name] = maintainer
        self._update_retention()

    def lag(self, view) -> int:
        """Feed positions the view trails the current LSN by."""
        return max(0, self.database.current_lsn() - view.applied_lsn)

    # -- draining --------------------------------------------------------------

    def drain(self, max_records: int | None = None) -> int:
        """Apply up to ``max_records`` feed records in LSN order.

        Records are processed in batches of up to ``drain_batch``: one
        X-lock acquisition per view per batch instead of per record,
        which is what makes a deep backlog drain cheap (ROADMAP item 4
        follow-on).  Returns the number of records fully processed.
        Stops early when a view's X lock is denied (the whole batch is
        requeued in order and ``lock_yields`` bumped — ``applied_views``
        stamps keep the retry from double-applying).  A second
        concurrent drain returns 0 immediately rather than
        interleaving.
        """
        if not self._drain_mutex.acquire(blocking=False):
            return 0
        try:
            drained = 0
            while max_records is None or drained < max_records:
                limit = self.drain_batch
                if max_records is not None:
                    limit = min(limit, max_records - drained)
                batch = self._take_batch(limit)
                if not batch:
                    break
                try:
                    self._apply_batch(batch)
                except LockError:
                    self._requeue_batch(batch)
                    self.lock_yields += 1
                    break
                except BaseException:
                    # Crash/control unwind: keep the records at the head
                    # so an in-process retry (ERROR-mode injections)
                    # resumes exactly where it stopped.
                    self._requeue_batch(batch)
                    raise
                self._last_drained_lsn = batch[-1].lsn
                self.records_drained += len(batch)
                self.drain_batches += 1
                drained += len(batch)
            self._advance_to_feed_end()
            self._update_retention()
            return drained
        finally:
            self._drain_mutex.release()

    def _take_batch(self, limit: int) -> list[OutboxRecord]:
        """Pop up to ``limit`` records off the feed head, verifying the
        LSN-order invariant as they come."""
        batch: list[OutboxRecord] = []
        while len(batch) < limit:
            record = self.outbox.take()
            if record is None:
                break
            if record.lsn <= self._last_drained_lsn:
                self.outbox.requeue(record)
                self._requeue_batch(batch)
                raise MaintenanceError(
                    f"outbox feed out of order: record LSN {record.lsn} "
                    f"after {self._last_drained_lsn} — a delta would be "
                    f"double-applied"
                )
            batch.append(record)
        return batch

    def _requeue_batch(self, batch: list[OutboxRecord]) -> None:
        """Put a batch back at the feed head, oldest first afterwards."""
        for record in reversed(batch):
            self.outbox.requeue(record)

    def _update_retention(self) -> None:
        """Publish the CDC low-watermark to the WAL retention registry.

        Segment reclamation must not retire records the feed still
        needs for idempotent reasoning or that a registered view has
        not absorbed: the published position is the minimum of every
        view's applied LSN and the LSN just below the oldest pending
        feed record.
        """
        wal = self.database.wal
        if wal is None or not hasattr(wal, "retention"):
            return
        if not self._registered:
            wal.retention.release("cdc")
            return
        floor = min(m.view.applied_lsn for m in self._registered.values())
        head = self.outbox.peek_lsn()
        if head is not None:
            floor = min(floor, head - 1)
        wal.retention.update("cdc", floor)

    def _advance_to_feed_end(self) -> None:
        """With the feed empty, catch watermarks up to the current LSN.

        WAL-only records (checkpoint markers) advance the LSN without a
        feed record; without this step a fully-drained view would
        report phantom staleness forever.  LSN read and emptiness check
        must be atomic against committing statements: a writer bumps
        the WAL LSN and appends the feed record as two steps inside the
        statement latch, so a drain that reads the LSN after the WAL
        append but checks emptiness before the outbox append would see
        an empty feed and jump the watermark past an unapplied change
        (phantom freshness).  Both steps therefore run under the
        statement latch, acquired non-blocking: if a statement is
        mid-commit the bump is simply skipped (``advance_skips``) and
        the next drain catches up — blocking here could deadlock
        against a writer parked by the interleaving scheduler.
        """
        latch = self.database.statement_latch
        if not latch.acquire(blocking=False):
            self.advance_skips += 1
            return
        try:
            high = self.database.current_lsn()
            if len(self.outbox) != 0:
                return
            for maintainer in self._registered.values():
                if maintainer.view.applied_lsn < high:
                    maintainer.view.applied_lsn = high
        finally:
            latch.release()

    def drain_to_convergence(self, max_rounds: int = 1000) -> int:
        """Drain until the feed is empty; returns records processed.

        Bounded by ``max_rounds`` lock yields so a reader that never
        releases its S lock cannot hang the caller.
        """
        total = 0
        for _ in range(max_rounds):
            total += self.drain()
            if len(self.outbox) == 0:
                return total
        raise MaintenanceError(
            f"feed did not converge after {max_rounds} drain rounds "
            f"({len(self.outbox)} records pending)"
        )

    def _apply_batch(self, batch: list[OutboxRecord]) -> None:
        """Apply a batch of feed records to every registered view.

        Per view: partition the batch into already-applied (stamped by
        the eager hot path or an interrupted earlier pass), irrelevant
        (stamped immediately), and relevant records — then apply all
        relevant deltas under ONE X-lock acquisition.  Watermarks
        advance only after the whole batch succeeded for every view, so
        a mid-batch failure leaves them honest (lagging, never lying).
        """
        for name, maintainer in self._registered.items():
            relevant: list[OutboxRecord] = []
            for record in batch:
                if name in record.applied_views:
                    self.eager_skips += 1
                elif maintainer._needs_maintenance(record.change):
                    relevant.append(record)
                else:
                    record.applied_views.add(name)
            if relevant:
                self._apply_deltas(maintainer, relevant)
        for maintainer in self._registered.values():
            view = maintainer.view
            if batch[-1].lsn > view.applied_lsn:
                view.applied_lsn = batch[-1].lsn

    def _apply_deltas(
        self, maintainer: PMVMaintainer, records: list[OutboxRecord]
    ) -> None:
        """Apply ``records`` to one view under a single X lock.

        The statement latch is still taken per record (the latch guards
        physical structures and must stay short); only the *logical*
        lock acquisition — the expensive, possibly-waiting step — is
        amortized across the batch.  Each record is stamped as applied
        the moment its delta lands, so an organic failure partway
        through (the batch is requeued by the caller) never
        double-applies on retry.
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
                    if not maintainer.apply_async(record.change):
                        self.failsafe_clears += 1
                    else:
                        self.deltas_applied += 1
                record.applied_views.add(maintainer.view.name)
        finally:
            txn.commit()

    # -- introspection ---------------------------------------------------------

    def stats(self) -> dict:
        return {
            "records_drained": self.records_drained,
            "cdc_drain_batches": self.drain_batches,
            "drain_batch": self.drain_batch,
            "deltas_applied": self.deltas_applied,
            "eager_skips": self.eager_skips,
            "lock_yields": self.lock_yields,
            "failsafe_clears": self.failsafe_clears,
            "advance_skips": self.advance_skips,
            "pending": len(self.outbox),
            "high_watermark": self.outbox.last_lsn,
            "views": {
                name: m.view.applied_lsn for name, m in self._registered.items()
            },
        }
