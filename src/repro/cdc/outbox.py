"""The transactional outbox: DML's change feed for async maintenance.

Every insert/delete/update appends one :class:`OutboxRecord` *inside*
the statement latch, immediately after the WAL append, stamped with
that append's LSN.  Feed order therefore equals serialization order —
the property the drain relies on to apply deltas in LSN order and keep
per-view watermarks meaningful.

The feed's *authoritative* copy is the WAL: after a crash every PMV
restarts empty (the always-correct fail-safe subset) and a fresh feed
repopulates naturally as recovery replays the log through a database
with an outbox attached — so the spill tier below is a memory bound,
never a durability mechanism.  What *must* hold is atomicity with the
statement: an aborted statement never reaches the append (the prepare
phase and the heap mutation both precede it), and a crash in either
append window (before or after the record is stored) is a process
death, never a silent gap — DELETE/UPDATE WAL payloads carry no old
row values, so a dropped record could not be reconstructed after the
fact.

Bounded memory (DESIGN.md §15): with ``spill_threshold`` set, the feed
keeps at most that many change *payloads* resident.  Once the window
is full, further appends write their payload to a CRC-checked spill
file and keep only the record's metadata (LSN + applied-view stamps)
in the deque — ``mark_applied`` / watermark bookkeeping never touch
the file.  :meth:`take` reads a spilled payload back (verifying its
CRC) just before the drain needs it, and the spill file is truncated
whenever the last spilled record leaves the feed.  A spill write that
itself hits a full disk falls back to keeping the payload resident
(counted in ``spill_enospc``): the statement already committed to the
WAL, so the feed *must* accept the record — backpressure is the
governor's job, fed by the backlog depth this module reports.
"""

from __future__ import annotations

import errno as _errno
import os
import tempfile
import threading
from collections import deque
from typing import Any, Callable

from repro.engine import codec
from repro.engine.row import Row
from repro.engine.transactions import Change, ChangeKind
from repro.errors import DiskFullError, EngineError, OutboxSpillError

__all__ = ["ChangeOutbox", "OutboxRecord"]


class OutboxRecord:
    """One feed element: a base-relation change at a known LSN.

    ``applied_views`` names the views this record has already been
    applied to — by the eager hot path at write time, or by a partial
    drain that was interrupted — so a retried drain never applies the
    same delta twice.  A spilled record carries ``change=None`` and a
    ``spill_ref`` (byte offset + length in the spill file) instead;
    :meth:`ChangeOutbox.take` rehydrates it before any consumer sees
    it.
    """

    __slots__ = ("lsn", "change", "applied_views", "spill_ref")

    def __init__(self, lsn: int, change: Change | None) -> None:
        self.lsn = lsn
        self.change = change
        self.applied_views: set[str] = set()
        self.spill_ref: tuple[int, int] | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = (
            f"{self.change.kind.name} {self.change.relation!r}"
            if self.change is not None
            else f"spilled@{self.spill_ref}"
        )
        return (
            f"OutboxRecord(lsn={self.lsn}, {body}, "
            f"applied={sorted(self.applied_views)})"
        )


_CHANGE_KINDS = tuple(kind.value for kind in ChangeKind)


def _is_spilled_change(payload: Any) -> bool:
    return (
        isinstance(payload, dict)
        and type(payload.get("lsn")) is int
        and payload.get("kind") in _CHANGE_KINDS
        and isinstance(payload.get("relation"), str)
        and all(isinstance(payload.get(s, 0), (list, type(None))) for s in ("old", "new"))
    )


class ChangeOutbox:
    """FIFO change feed appended to by DML, drained by AsyncMaintainer.

    ``fault_check`` is an injector-style callable (``site -> FaultSpec
    | None``, see :class:`repro.faults.inject.FaultInjector.check`)
    giving the torture harness the two crash windows of one append:
    ``CRASH_BEFORE`` (the WAL record is durable but the feed never saw
    the change) and ``CRASH_AFTER`` (both are durable, the statement
    was never acknowledged).  There is no ERROR mode: a failed append
    cannot be handled by aborting the statement, because the heap and
    WAL mutations already happened — it is a crash, exactly like a
    failed ``wal.append``.  Spill *writes* additionally fire the
    ``disk.full`` site (ERROR only), and that one is handled in-line by
    the resident fallback described in the module docstring.

    ``spill_threshold`` bounds resident change payloads;
    ``spill_path`` names the spill file (defaults to a private
    tempfile, removed on :meth:`close`); ``schema_resolver`` maps a
    relation name to its :class:`~repro.engine.schema.Schema` for
    rehydrating spilled rows (the :class:`~repro.cdc.maintainer
    .AsyncMaintainer` wires it to the database catalog automatically).
    """

    def __init__(
        self,
        fault_check: Callable[[str], object] | None = None,
        spill_threshold: int | None = None,
        spill_path: str | None = None,
        schema_resolver: Callable[[str], object] | None = None,
    ) -> None:
        self._records: deque[OutboxRecord] = deque()
        self._mutex = threading.Lock()
        self._last_lsn = 0
        self.appended = 0
        self.fault_check = fault_check
        if spill_threshold is not None and spill_threshold < 1:
            raise EngineError("spill_threshold must be positive")
        self.spill_threshold = spill_threshold
        self.spill_path = spill_path
        self.schema_resolver = schema_resolver
        self._spill_file = None
        self._spill_owned = False
        self._resident = 0  # pending records whose payload is in memory
        self._spilled_pending = 0
        self.peak_resident = 0
        self.spilled_total = 0
        self.materialized = 0
        self.spill_bytes = 0
        self.spill_truncations = 0
        self.spill_enospc = 0

    # -- producer side (inside the DML statement latch) -----------------------

    def append(self, change: Change, lsn: int | None = None) -> OutboxRecord:
        """Append one change record; called with the statement latch held.

        ``lsn`` is the WAL LSN of the statement's log record.  On a
        WAL-less database the outbox assigns its own monotonic sequence
        numbers, which serve the same role (feed position == statement
        serialization order).
        """
        spec = self.fault_check("outbox.append") if self.fault_check else None
        if spec is not None and spec.mode.name == "CRASH_BEFORE":
            from repro.faults.inject import SimulatedCrash

            raise SimulatedCrash(spec)
        with self._mutex:
            if lsn is None:
                lsn = self._last_lsn + 1
            record = OutboxRecord(lsn, change)
            if (
                self.spill_threshold is not None
                and self._resident >= self.spill_threshold
            ):
                try:
                    self._spill(record)
                except DiskFullError:
                    # The statement already committed to the WAL; the
                    # feed must take the record.  Degrade to resident
                    # growth and let the governor shed load upstream.
                    self.spill_enospc += 1
            if record.spill_ref is not None:
                self._spilled_pending += 1
            else:
                self._resident += 1
                self.peak_resident = max(self.peak_resident, self._resident)
            self._records.append(record)
            self._last_lsn = max(self._last_lsn, lsn)
            self.appended += 1
        if spec is not None:
            # CRASH_AFTER: the record made the feed, then the process
            # died before the statement was acknowledged.
            from repro.faults.inject import SimulatedCrash

            raise SimulatedCrash(spec)
        return record

    def mark_applied(self, lsn: int, view_name: str) -> bool:
        """Mark the record at ``lsn`` as already applied to ``view_name``
        (the eager hot path calls this at write time, from the tail)."""
        with self._mutex:
            for record in reversed(self._records):
                if record.lsn == lsn:
                    record.applied_views.add(view_name)
                    return True
                if record.lsn < lsn:
                    break
        return False

    def mark_applied_up_to(self, lsn: int, view_name: str) -> int:
        """Stamp every pending record at or below ``lsn`` as applied to
        ``view_name``; returns how many records were stamped.

        Registration calls this: a view that was eagerly maintained
        until now has already absorbed every change the feed still
        holds up to its registration LSN, so those records must not be
        applied to it again by the drain.
        """
        stamped = 0
        with self._mutex:
            for record in self._records:
                if record.lsn > lsn:
                    break
                if view_name not in record.applied_views:
                    record.applied_views.add(view_name)
                    stamped += 1
        return stamped

    def applied_up_to(self, lsn: int, view_name: str) -> bool:
        """True when no pending record at or below ``lsn`` still awaits
        ``view_name`` — i.e. the view's watermark may advance to ``lsn``
        (everything earlier was either drained away or eagerly applied)."""
        with self._mutex:
            for record in self._records:
                if record.lsn > lsn:
                    break
                if view_name not in record.applied_views:
                    return False
        return True

    # -- consumer side (the drain) --------------------------------------------

    def take(self) -> OutboxRecord | None:
        """Pop the oldest record, or None when the feed is empty.

        A spilled record is rehydrated (CRC-verified) before it is
        returned, so consumers never see ``change=None``.
        """
        with self._mutex:
            if not self._records:
                return None
            record = self._records.popleft()
            if record.spill_ref is not None:
                self._materialize(record)
                self._spilled_pending -= 1
                if self._spilled_pending == 0:
                    self._truncate_spill()
            else:
                self._resident -= 1
            return record

    def requeue(self, record: OutboxRecord) -> None:
        """Put a record back at the head after a blocked/interrupted
        apply.  Safe because producers only ever append at the tail;
        ``applied_views`` keeps the retry from double-applying."""
        with self._mutex:
            self._records.appendleft(record)
            # A requeued record was already rehydrated by take().
            self._resident += 1
            self.peak_resident = max(self.peak_resident, self._resident)

    # -- the spill tier --------------------------------------------------------

    def _spill_handle(self):
        if self._spill_file is None:
            if self.spill_path is None:
                fd, self.spill_path = tempfile.mkstemp(
                    prefix="pmv-outbox-", suffix=".spill"
                )
                os.close(fd)
                self._spill_owned = True
            self._spill_file = open(self.spill_path, "a+b")
        return self._spill_file

    def _spill(self, record: OutboxRecord) -> None:
        """Move ``record``'s payload to the spill file (mutex held)."""
        if self.fault_check is not None and self.fault_check("disk.full"):
            raise DiskFullError(
                "no space left on device (outbox spill write)", site="disk.full"
            )
        change = record.change
        data = codec.encode(
            {
                "lsn": record.lsn,
                "kind": change.kind.value,
                "relation": change.relation,
                "old": None if change.old_row is None else list(change.old_row.values),
                "new": None if change.new_row is None else list(change.new_row.values),
            }
        ).encode("ascii")
        handle = self._spill_handle()
        handle.seek(0, os.SEEK_END)
        offset = handle.tell()
        try:
            handle.write(data)
            handle.flush()
        except OSError as exc:
            if exc.errno == _errno.ENOSPC:
                try:
                    handle.truncate(offset)
                except OSError:
                    pass
                raise DiskFullError(
                    "no space left on device (outbox spill write)",
                    site="disk.full",
                ) from exc
            raise
        record.spill_ref = (offset, len(data))
        record.change = None
        self.spilled_total += 1
        self.spill_bytes = offset + len(data)

    def _materialize(self, record: OutboxRecord) -> None:
        """Rehydrate a spilled record's payload (mutex held)."""
        offset, length = record.spill_ref
        handle = self._spill_handle()
        handle.seek(offset)
        text = handle.read(length).decode("utf-8", errors="replace")
        payload = codec.decode(text, OutboxSpillError, accept=_is_spilled_change)
        if payload["lsn"] != record.lsn:
            raise OutboxSpillError(
                f"spilled outbox record at offset {offset} carries LSN "
                f"{payload['lsn']}, expected {record.lsn}"
            )
        if self.schema_resolver is None:
            raise EngineError(
                "a spilling outbox needs a schema_resolver to rehydrate rows"
            )
        schema = self.schema_resolver(payload["relation"])
        old = None if payload["old"] is None else Row(tuple(payload["old"]), schema)
        new = None if payload["new"] is None else Row(tuple(payload["new"]), schema)
        record.change = Change(
            ChangeKind(payload["kind"]), payload["relation"], old_row=old, new_row=new
        )
        record.spill_ref = None
        self.materialized += 1

    def _truncate_spill(self) -> None:
        if self._spill_file is None:
            return
        self._spill_file.truncate(0)
        self._spill_file.seek(0)
        self.spill_bytes = 0
        self.spill_truncations += 1

    def close(self) -> None:
        """Release the spill file (removing it when outbox-owned)."""
        if self._spill_file is not None:
            self._spill_file.close()
            self._spill_file = None
        if self._spill_owned and self.spill_path is not None:
            try:
                os.remove(self.spill_path)
            except OSError:
                pass
            self.spill_path = None
            self._spill_owned = False

    # -- introspection ---------------------------------------------------------

    @property
    def last_lsn(self) -> int:
        """High-watermark: the LSN of the newest appended record."""
        return self._last_lsn

    def __len__(self) -> int:
        return len(self._records)

    def peek_lsn(self) -> int | None:
        """LSN of the oldest pending record, or None when drained."""
        with self._mutex:
            return self._records[0].lsn if self._records else None

    def pending(self) -> list[OutboxRecord]:
        """Snapshot of the pending records, oldest first (for tests)."""
        with self._mutex:
            return list(self._records)

    def stats(self) -> dict:
        """Backlog and spill-tier gauges (one consistent snapshot)."""
        with self._mutex:
            return {
                "pending": len(self._records),
                "resident": self._resident,
                "spilled": self._spilled_pending,
                "peak_resident": self.peak_resident,
                "spill_threshold": self.spill_threshold,
                "spilled_total": self.spilled_total,
                "materialized": self.materialized,
                "spill_bytes": self.spill_bytes,
                "spill_truncations": self.spill_truncations,
                "spill_enospc": self.spill_enospc,
                "appended": self.appended,
            }
