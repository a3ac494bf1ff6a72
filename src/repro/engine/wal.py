"""Write-ahead logging and crash recovery.

The engine's durability story, kept deliberately simple but honest:

- every DDL statement (CREATE TABLE / CREATE INDEX) and every DML
  statement (INSERT / DELETE / UPDATE) appends a :class:`LogRecord`
  the moment it succeeds — the log is the database of record, and the
  in-memory heap/indexes are a cache of it (statement-level
  commit-at-log semantics: a statement interrupted before its record
  is durable simply never happened);
- the log lives in memory and, optionally, on disk so it survives a
  process crash — as a directory of ``wal-*.seg`` segments of one
  :mod:`~repro.engine.codec` frame per record, that rotate at
  ``segment_bytes`` (never, when it is ``None``) and whose reclaimed
  prefix moves to an archive tier (DESIGN.md §15);
- each record is framed once, at append: a CRC32 over its stored body,
  verified whenever the record is read back — on crash-recovery replay
  and again on the replication ship path — so bit rot is detected
  loudly instead of being replayed into a fresh instance;
- every read of segment bytes — archive load, live load, archived
  read-back — goes through one reader, :func:`_read_segment`: clean,
  a repairable tail, or :class:`~repro.errors.WALCorruptionError`;
- :func:`recover` replays a log into a fresh :class:`Database`.  Replay
  is deterministic — row ids are allocated in the same order as the
  original execution — so DELETE/UPDATE records can address rows by
  their original (page, slot) ids.

Rotation bounds the resources a run-forever instance consumes:
:meth:`WriteAheadLog.reclaim` moves every segment fully covered by the
last checkpoint *and* every registered consumer (replication links, the
CDC maintainer — see :class:`LsnRetentionRegistry`) into the archive,
and prunes the in-memory record list to match.  A lagging consumer
reads the reclaimed prefix back transparently: :meth:`records` falls
through to the archived segment files (CRC-verified on the way in), so
a slow replica retransmits from archive instead of being forced into a
snapshot bootstrap.

PMVs deliberately do **not** participate in recovery: a PMV is a cache
of re-derivable results, so after a crash it simply restarts empty and
refills from query execution — one more consequence of the paper's
"PMV is any subset of its containing MV" definition (an empty subset is
a correct subset).
"""

from __future__ import annotations

import enum
import errno as _errno
import os
import re
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from repro.engine import codec
from repro.engine.datatypes import DataType, TypeKind
from repro.engine.row import RowId
from repro.engine.schema import Column
from repro.errors import (
    DiskFullError,
    EngineError,
    WALChecksumError,
    WALCorruptionError,
    WALFencedError,
)

__all__ = [
    "LogKind",
    "LogRecord",
    "LsnRetentionRegistry",
    "WriteAheadLog",
    "recover",
    "replay_record",
]


class LogKind(enum.Enum):
    CREATE_RELATION = "create_relation"
    CREATE_INDEX = "create_index"
    INSERT = "insert"
    DELETE = "delete"
    UPDATE = "update"
    CHECKPOINT = "checkpoint"


@dataclass(slots=True)
class LogRecord:
    """One durable log entry.

    ``payload`` is a JSON-safe dict whose shape depends on ``kind``:

    - CREATE_RELATION: ``{"name", "columns": [[name, type, nullable]]}``
    - CREATE_INDEX: ``{"name", "relation", "key_columns", "ordered"}``
    - INSERT: ``{"relation", "values"}``
    - DELETE: ``{"relation", "page_no", "slot_no"}``
    - UPDATE: ``{"relation", "page_no", "slot_no", "changes"}``
    - CHECKPOINT: ``{}``

    ``frame`` is its :mod:`~repro.engine.codec` line, serialized once
    by :meth:`make`: what a segment stores and a ship message carries.
    A record made by an append keeps only its frame, so a resident log
    costs its bytes, not a dict per record; reading its ``payload``
    (replay, recovery, checks — never the write or ship path) parses
    the frame again.  A decoded record keeps the payload it parsed.

    ``change`` is the statement's :class:`~repro.engine.transactions
    .Change`, the deleted row's values included, for the CDC drain
    (:mod:`repro.cdc`).  It is never serialized: an append attaches it
    only while a drain reads the log (:attr:`WriteAheadLog.change_feed`),
    and the drain
    drops it once every registered view has read past the record.
    """

    lsn: int
    kind: LogKind
    frame: str
    _payload: dict[str, Any] | None = field(default=None, compare=False, repr=False)
    change: Any = field(default=None, compare=False, repr=False)

    @property
    def payload(self) -> dict[str, Any]:
        if self._payload is None:
            return LogRecord.decode(self.frame)._payload
        return self._payload

    @staticmethod
    def make(lsn: int, kind: LogKind, payload: dict[str, Any]) -> "LogRecord":
        frame = codec.encode({"lsn": lsn, "kind": kind.value, "payload": payload})
        return LogRecord(lsn, kind, frame)

    @staticmethod
    def decode(frame: str) -> "LogRecord":
        """Parse one framed record; typed failure on any input:
        :class:`~repro.errors.WALCorruptionError` for anything that is
        not the frame of a record document, its
        :class:`~repro.errors.WALChecksumError` subclass for a record
        whose CRC disagrees with its stored body."""
        data = codec.decode(frame, WALCorruptionError, WALChecksumError, _is_record)
        return LogRecord(data["lsn"], _KIND_BY_NAME[data["kind"]], frame, data["payload"])


def _is_record(data: Any) -> bool:
    return (
        isinstance(data, dict)
        and type(data.get("lsn")) is int
        and data["lsn"] > 0
        and isinstance(data.get("kind"), str)
        and data["kind"] in _KIND_BY_NAME
        and isinstance(data.get("payload"), dict)
    )


_KIND_BY_NAME = {kind.value: kind for kind in LogKind}


class LsnRetentionRegistry:
    """Named low-watermarks gating WAL segment reclamation.

    Every consumer that may still need old records registers its
    applied/acknowledged position here: the replication ship pump (one
    entry per link), the CDC maintainer's feed watermark, anything
    else that replays history.  :meth:`WriteAheadLog.reclaim` never
    retires a segment past ``min(positions)`` — so a lagging replica or
    CDC drain holds segments live (or archived but readable) instead of
    being silently cut off.
    """

    def __init__(self) -> None:
        self._positions: dict[str, int] = {}
        self._mutex = threading.Lock()

    def update(self, name: str, lsn: int) -> None:
        """Record that consumer ``name`` has durably consumed ``lsn``
        (everything at or below it may be reclaimed from under it)."""
        with self._mutex:
            self._positions[name] = int(lsn)

    def release(self, name: str) -> None:
        """Forget a consumer (it bootstrapped from a snapshot, or was
        decommissioned); it no longer pins retention."""
        with self._mutex:
            self._positions.pop(name, None)

    def floor(self) -> int | None:
        """The reclamation bound: the minimum registered position, or
        ``None`` when no consumer is registered (nothing pins)."""
        with self._mutex:
            if not self._positions:
                return None
            return min(self._positions.values())

    def positions(self) -> dict[str, int]:
        with self._mutex:
            return dict(self._positions)


@dataclass
class _Segment:
    """One on-disk log segment (live or archived)."""

    seq: int
    path: str
    first_lsn: int = 0  # 0 while the segment is still empty
    last_lsn: int = 0
    size: int = 0  # complete (newline-terminated) bytes

    @property
    def name(self) -> str:
        return os.path.basename(self.path)


_SEGMENT_NAME = re.compile(r"wal-(\d+)\.seg")


def _segment_name(seq: int) -> str:
    return f"wal-{seq:08d}.seg"


def _list_segments(directory: str) -> list[tuple[int, str]]:
    """``(seq, path)`` of every segment file in ``directory``, in order."""
    if not os.path.isdir(directory):
        return []
    return sorted(
        (int(match[1]), os.path.join(directory, name))
        for name in os.listdir(directory)
        if (match := _SEGMENT_NAME.fullmatch(name))
    )


def _read_segment(
    seg_path: str,
) -> tuple[list[LogRecord], int, tuple[str, str] | None]:
    """The one place segment bytes become records.

    Returns ``(records, complete_bytes, damage)``: the record of every
    newline-terminated line up to the first that cannot be trusted, the
    byte length of that trusted prefix, and what stopped the read —
    ``None`` (clean: the file ends on a record boundary), ``("torn",
    fragment)`` (the final line has no newline, so the append and the
    fsync covering it were still in flight) or ``("checksum", line)``
    (a terminated record whose CRC disagrees with its body).  Damage is
    a tail the caller may cut off; a terminated line that is not a
    record at all is beyond repair and raises
    :class:`~repro.errors.WALCorruptionError`.
    """
    with open(seg_path, "rb") as handle:
        raw = handle.read()
    records: list[LogRecord] = []
    complete_bytes = 0
    # The piece after the last newline is empty on a clean file.
    *lines, fragment = raw.split(b"\n")
    for line_bytes in lines:
        line = line_bytes.decode("utf-8", "replace")
        try:
            records.append(LogRecord.decode(line + "\n"))
        except WALChecksumError:
            return records, complete_bytes, ("checksum", line)
        except WALCorruptionError as exc:
            raise WALCorruptionError(
                f"unparseable WAL record at byte {complete_bytes} of segment "
                f"{seg_path!r} (not a torn final line): {line[:80]!r}"
            ) from exc
        complete_bytes += len(line_bytes) + 1  # + newline
    if fragment:
        return records, complete_bytes, ("torn", fragment.decode("utf-8", "replace"))
    return records, complete_bytes, None


def _read_archived(seg_path: str) -> list[LogRecord]:
    """Records of an archived segment.  The archive is immutable, so
    damage of any kind there is corruption, never a repairable tail."""
    records, _, damage = _read_segment(seg_path)
    if damage is not None:
        raise WALCorruptionError(
            f"archived segment {seg_path!r} has a {damage[0]} record; the "
            f"archive is immutable, so this is corruption"
        )
    return records


class WriteAheadLog:
    """An append-only log, in memory and optionally on disk.

    ``path`` names a *directory* of ``wal-*.seg`` segments; every append
    is written to the active one and fsynced immediately
    (force-at-append — simple, and sufficient for statement-level
    durability).  The active segment rotates once it crosses
    ``segment_bytes`` (never, when that is ``None``; rotation is
    deferred to the next :meth:`reserve`, so it can never fail
    mid-statement), and :meth:`reclaim` retires fully checkpointed,
    fully consumed segments to ``archive_dir`` — keeping both the live
    directory and the in-memory record list bounded no matter how long
    the instance runs.  ``archive_max_bytes`` optionally bounds the
    archive too; records pruned past it are gone, and a consumer that
    still needs them must bootstrap from a snapshot.

    The constructor starts a *new* log: a directory that already holds
    segments is read back with :meth:`load`, never appended to blind.
    """

    def __init__(
        self,
        path: str | None = None,
        segment_bytes: int | None = None,
        archive_dir: str | None = None,
        archive_max_bytes: int | None = None,
    ) -> None:
        self.path = path
        self.segment_bytes = segment_bytes
        self.archive_dir = archive_dir
        self.archive_max_bytes = archive_max_bytes
        self._records: list[LogRecord] = []
        self._next_lsn = 1
        self._file = None
        self.torn_tail: str | None = None
        self.checksum_tail: str | None = None
        self.checksum_failures = 0
        self.fenced_by_epoch: int | None = None
        # The one CDC drain reading statements' changes off the
        # resident records, if any; only then does an append keep its
        # change.
        self.change_feed: Any = None
        # Resource model (DESIGN.md §15) ---------------------------------
        # Optional fault-site hook (repro.faults): fired at the
        # reserve/rotate probes as site "wal.enospc".
        self.fault_check: Callable[[str], Any] | None = None
        self.retention = LsnRetentionRegistry()
        self.last_checkpoint_lsn = 0
        # Records at or below truncated_lsn live only in the archive;
        # below pruned_lsn they are gone entirely.
        self.truncated_lsn = 0
        self.pruned_lsn = 0
        self.segments_rotated = 0
        self.segments_reclaimed = 0
        self.segments_pruned = 0
        self.archive_reads = 0
        self.repairs = 0
        self.last_repair: dict[str, Any] | None = None
        self._segments: list[_Segment] = []  # live; last is the active one
        self._archived: list[_Segment] = []
        if segment_bytes is not None and segment_bytes < 1:
            raise EngineError("segment_bytes must be positive")
        if path is None:
            if segment_bytes is not None:
                raise EngineError("segment_bytes needs a directory path")
            return  # in memory only: no segments, nothing to rotate
        if os.path.isfile(path):
            raise EngineError(f"{path!r} is a regular file, not a log directory")
        os.makedirs(path, exist_ok=True)
        if self.archive_dir is None:
            self.archive_dir = os.path.join(path, "archive")
        os.makedirs(self.archive_dir, exist_ok=True)
        if _list_segments(path) or _list_segments(self.archive_dir):
            raise EngineError(
                f"{path!r} already holds log segments; read it back with "
                f"WriteAheadLog.load() — a new log here would restart at "
                f"LSN 1 behind the history on disk"
            )
        seg_path = os.path.join(path, _segment_name(1))
        self._file = open(seg_path, "a", encoding="utf-8")
        self._segments.append(_Segment(seq=1, path=seg_path))

    # -- writing -------------------------------------------------------------

    def append(
        self, kind: LogKind, payload: dict[str, Any], change: Any = None
    ) -> LogRecord:
        """Log one statement; ``change`` rides the resident record while
        a CDC drain is registered (:attr:`change_feed`)."""
        self._check_unfenced()
        record = LogRecord.make(self._next_lsn, kind, payload)
        if self.change_feed is not None:
            record.change = change
        self._store(record)
        return record

    def adopt(self, record: LogRecord) -> None:
        """Append a record another log made, frame unchanged (a replica
        adopting what its primary shipped).  Its LSN must be the next
        one: a gap or a repeat is refused before anything is stored.
        Like an appended record, the stored one keeps only its frame."""
        self._check_unfenced()
        if record.lsn != self._next_lsn:
            raise EngineError(
                f"cannot adopt LSN {record.lsn}: the log's next LSN is "
                f"{self._next_lsn}"
            )
        if record.kind is LogKind.CHECKPOINT:
            self.last_checkpoint_lsn = record.lsn
        self._store(LogRecord(record.lsn, record.kind, record.frame))

    def _check_unfenced(self) -> None:
        if self.fenced_by_epoch is not None:
            raise WALFencedError(
                f"log is fenced: epoch {self.fenced_by_epoch} was promoted "
                f"elsewhere; this instance must not accept appends"
            )

    def _store(self, record: LogRecord) -> None:
        self._next_lsn += 1
        self._records.append(record)
        if self._file is not None:
            self._file.write(record.frame)
            self._file.flush()
            os.fsync(self._file.fileno())
            active = self._segments[-1]
            if active.first_lsn == 0:
                active.first_lsn = record.lsn
            active.last_lsn = record.lsn
            active.size += len(record.frame)  # an ASCII frame: chars == bytes

    def reserve(self) -> None:
        """Pre-statement space probe: fail *before* anything mutates.

        The engine calls this at the top of every DML statement
        (:meth:`Database._check_writable`).  It fires the
        ``wal.enospc`` fault site and performs any rotation the last
        append made due — both places a real system hits ENOSPC — so a
        full disk surfaces here as a clean, typed
        :class:`~repro.errors.DiskFullError` refusal while the heap,
        indexes, and log are still untouched.  The next successful
        probe is the auto-recovery signal.
        """
        if self.fault_check is not None and self.fault_check("wal.enospc"):
            raise DiskFullError(
                "no space left on device (WAL append reserve)",
                site="wal.enospc",
            )
        if self._rotation_due():
            self._rotate()

    def _rotation_due(self) -> bool:
        return (
            self.segment_bytes is not None
            and self._segments[-1].first_lsn != 0
            and self._segments[-1].size >= self.segment_bytes
        )

    def _rotate(self) -> None:
        """Retire the active segment and open the next one.

        Deferred to :meth:`reserve` on purpose: creating a file can hit
        a full disk, and failing *between* a heap mutation and its WAL
        append would leave the two disagreeing.  Failing here refuses
        the statement before it starts; the rotation stays due and is
        retried by the next probe.
        """
        if self.fault_check is not None and self.fault_check("wal.enospc"):
            raise DiskFullError(
                "no space left on device (WAL segment rotate)",
                site="wal.enospc",
            )
        seq = self._segments[-1].seq + 1
        seg_path = os.path.join(self.path, _segment_name(seq))
        try:
            handle = open(seg_path, "a", encoding="utf-8")
        except OSError as exc:
            if exc.errno == _errno.ENOSPC:
                raise DiskFullError(
                    "no space left on device (WAL segment rotate)",
                    site="wal.enospc",
                ) from exc
            raise
        self._file.close()
        self._file = handle
        self._segments.append(_Segment(seq=seq, path=seg_path))
        self.segments_rotated += 1

    def checkpoint(self) -> LogRecord:
        """Append a checkpoint marker (replay may start after the last
        one when the caller also persists a data snapshot)."""
        record = self.append(LogKind.CHECKPOINT, {})
        self.last_checkpoint_lsn = record.lsn
        return record

    def reclaim(self) -> int:
        """Move fully-covered segments to the archive; prune memory.

        A segment is reclaimable when every record in it is at or below
        the *retention floor*: the last checkpoint LSN (a snapshot
        exists that already covers it) AND every consumer position in
        :attr:`retention` (no replica or CDC drain still needs it
        live).  Reclaimed segments stay readable through
        :meth:`records` from the archive until ``archive_max_bytes``
        prunes them.  Returns the number of segments reclaimed by this
        call; a no-op (0) on a log that is not open for append (in
        memory, closed, or read back by :meth:`load`).
        """
        if self._file is None:
            return 0
        floor = self.last_checkpoint_lsn
        consumer = self.retention.floor()
        if consumer is not None:
            floor = min(floor, consumer)
        moved = 0
        while len(self._segments) > 1:
            segment = self._segments[0]
            if segment.first_lsn == 0 or segment.last_lsn > floor:
                break
            dest = os.path.join(self.archive_dir, segment.name)
            os.replace(segment.path, dest)
            segment.path = dest
            self._archived.append(segment)
            self._segments.pop(0)
            self.truncated_lsn = segment.last_lsn
            self.segments_reclaimed += 1
            moved += 1
        if moved:
            self._records = [r for r in self._records if r.lsn > self.truncated_lsn]
            self._prune_archive()
        return moved

    def _prune_archive(self) -> None:
        if self.archive_max_bytes is None:
            return
        while (
            len(self._archived) > 1
            and sum(seg.size for seg in self._archived) > self.archive_max_bytes
        ):
            oldest = self._archived.pop(0)
            os.remove(oldest.path)
            self.pruned_lsn = oldest.last_lsn
            self.segments_pruned += 1

    def fence(self, epoch: int) -> None:
        """Refuse all further appends: a newer epoch has been promoted.

        The replication coordinator fences a deposed primary's log so a
        zombie instance cannot keep acknowledging writes that no
        replica will ever accept (stale-epoch ships are additionally
        rejected on the receiving side)."""
        self.fenced_by_epoch = epoch

    def advance_to(self, lsn: int) -> None:
        """Set the next LSN to ``lsn + 1`` (replica bootstrap).

        A replica restored from a snapshot joins the primary's LSN
        space mid-stream; its local log must hand out the same LSNs the
        primary's log does for the records it applies.  Only valid on a
        log that has not outgrown ``lsn`` already, and that holds no
        resident record a jump would leave a gap behind (resident LSNs
        stay contiguous: :meth:`records` seeks by them)."""
        if lsn + 1 < self._next_lsn:
            raise EngineError(
                f"cannot rewind log from LSN {self._next_lsn - 1} to {lsn}"
            )
        if self._records and lsn + 1 != self._next_lsn:
            raise EngineError(
                f"cannot jump a log holding records from LSN "
                f"{self._next_lsn - 1} to {lsn}"
            )
        self._next_lsn = lsn + 1

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    # -- reading -------------------------------------------------------------

    def records(self, after_lsn: int = 0) -> Iterator[LogRecord]:
        """Complete records in LSN order.

        A torn final line detected by :meth:`load` is never yielded —
        by write-ahead semantics the interrupted statement simply never
        happened; the raw fragment stays available in ``torn_tail`` and
        :meth:`repair` truncates it off the file.

        Records already reclaimed from memory are read back from the
        archived segment files (CRC-verified), transparently: a lagging
        replica's retransmit and a from-scratch replay both just
        iterate.  Asking for records the archive has *pruned* raises
        :class:`~repro.errors.EngineError` — the caller must bootstrap
        from a snapshot instead.
        """
        if after_lsn < self.truncated_lsn:
            if after_lsn < self.pruned_lsn:
                raise EngineError(
                    f"records after LSN {after_lsn} were pruned from the "
                    f"archive (pruned through {self.pruned_lsn}); bootstrap "
                    f"from a snapshot instead"
                )
            for segment in self._archived:
                if segment.last_lsn <= after_lsn:
                    continue
                self.archive_reads += 1
                for record in _read_archived(segment.path):
                    if record.lsn > after_lsn:
                        yield record
        # Resident LSNs are contiguous, so the first record past
        # ``after_lsn`` sits at a computed index: a tail read costs the
        # tail, not the whole resident log.
        records = self._records
        index = max(0, after_lsn + 1 - records[0].lsn) if records else 0
        while index < len(records):
            yield records[index]
            index += 1

    def __len__(self) -> int:
        return len(self._records)

    @property
    def last_lsn(self) -> int:
        return self._next_lsn - 1

    @property
    def has_torn_tail(self) -> bool:
        """Whether :meth:`load` found an incomplete final record."""
        return self.torn_tail is not None

    @property
    def needs_repair(self) -> bool:
        """Whether :meth:`load` found damage :meth:`repair` can cut off
        — a torn final record or a checksum-mismatched record."""
        return self.torn_tail is not None or self.checksum_tail is not None

    def resource_stats(self) -> dict[str, Any]:
        """On-disk and in-memory footprint, for gates and benchmarks."""
        return {
            "segment_bytes": self.segment_bytes,
            "live_segments": len(self._segments),
            "live_bytes": sum(seg.size for seg in self._segments),
            "archived_segments": len(self._archived),
            "archived_bytes": sum(seg.size for seg in self._archived),
            "segments_rotated": self.segments_rotated,
            "segments_reclaimed": self.segments_reclaimed,
            "segments_pruned": self.segments_pruned,
            "archive_reads": self.archive_reads,
            "resident_records": len(self._records),
            "truncated_lsn": self.truncated_lsn,
            "pruned_lsn": self.pruned_lsn,
            "last_checkpoint_lsn": self.last_checkpoint_lsn,
            "retention": self.retention.positions(),
            "repairs": self.repairs,
            "last_repair": self.last_repair,
        }

    @staticmethod
    def load(path: str, archive_dir: str | None = None) -> "WriteAheadLog":
        """Read a log directory back (the crashed process's log).

        ``archive_dir`` is the one the log was constructed with
        (``<path>/archive`` when omitted).  Archived segments first,
        then live ones, in sequence order, all through
        :func:`_read_segment`, whose three outcomes map to:

        - *clean* — the records join the log;
        - *repairable tail* — reading stops at the damage and
          :meth:`repair` truncates there, dropping every later live
          segment.  A torn final line at the very end of the last live
          segment is a crash mid-append: reported via ``torn_tail`` /
          ``has_torn_tail`` and skipped, because an append that never
          completed is a statement that never happened.  A record that
          fails its CRC32 is bit rot (counted in ``checksum_failures``);
          it, or a tail torn in an *earlier* live segment, is reported
          via ``checksum_tail``;
        - *corruption* — :class:`~repro.errors.WALCorruptionError`: a
          terminated line that is not a record, any damage in the
          immutable archive, a gap in the segment sequence numbers, or
          a record whose LSN does not follow its predecessor's (the
          first may start anywhere: a pruned archive and a
          snapshot-bootstrapped replica begin mid-stream).  This replay
          is the system's ground truth; it never silently skips history.

        ``path`` must be a directory (:class:`~repro.errors.EngineError`).
        """
        if not os.path.isdir(path):
            raise EngineError(f"{path!r} is not a directory of log segments")
        log = WriteAheadLog()
        log.path = path
        log.archive_dir = archive_dir or os.path.join(path, "archive")
        archived = _list_segments(log.archive_dir)
        live = _list_segments(path)
        listing = archived + live
        for (before, _), (seq, seg_path) in zip(listing, listing[1:]):
            if seq != before + 1:
                raise WALCorruptionError(
                    f"segment {seg_path!r} follows sequence number {before}: "
                    f"{_segment_name(before + 1)} is missing or out of order"
                )

        def adopt(seq: int, seg_path: str, records: list[LogRecord], size: int):
            for record in records:
                if log._next_lsn == 1:
                    # History before the first surviving record is gone.
                    log.pruned_lsn = record.lsn - 1
                elif record.lsn != log._next_lsn:
                    raise WALCorruptionError(
                        f"segment {seg_path!r}: LSN {record.lsn} follows LSN "
                        f"{log._next_lsn - 1} — records are missing or out "
                        f"of order"
                    )
                log._next_lsn = record.lsn + 1
                if record.kind is LogKind.CHECKPOINT:
                    log.last_checkpoint_lsn = record.lsn
            first, last = (records[0].lsn, records[-1].lsn) if records else (0, 0)
            return _Segment(seq, seg_path, first_lsn=first, last_lsn=last, size=size)

        for seq, seg_path in archived:
            records = _read_archived(seg_path)
            segment = adopt(seq, seg_path, records, os.path.getsize(seg_path))
            log._archived.append(segment)
            log.truncated_lsn = segment.last_lsn
        for seq, seg_path in live:
            if log.needs_repair:
                break  # nothing after the damage is trusted; repair() drops it
            records, complete_bytes, damage = _read_segment(seg_path)
            log._segments.append(adopt(seq, seg_path, records, complete_bytes))
            log._records.extend(records)
            if damage is not None:
                kind, line = damage
                if kind == "torn" and seg_path == live[-1][1]:
                    log.torn_tail = line
                else:
                    log.checksum_tail = line
                if kind == "checksum":
                    log.checksum_failures += 1
        return log

    def repair(self) -> int:
        """Truncate the on-disk log to the last trustworthy record.

        Cuts off a torn final record and, when :meth:`load` found one,
        everything from the first checksum-mismatched record onward —
        including every live segment after the damaged one.  Returns
        the number of bytes removed; a no-op (returning 0) when the
        tail is intact.  Only meaningful on a log produced by
        :meth:`load`.

        What was cut is *reported*, never silent: ``last_repair``
        records the segment, byte offset, bytes removed, dropped
        segments, and reason, and ``repairs`` counts invocations — the
        serving gate surfaces both next to ``wal_checksum_failures``.
        """
        if self.path is None:
            raise EngineError("repair() needs an on-disk log read via load()")
        if not self.needs_repair:
            return 0
        # load() stopped at the damage, so the damaged segment is the
        # last one it adopted and its size is the trusted prefix.
        damaged = self._segments[-1]
        removed = os.path.getsize(damaged.path) - damaged.size
        os.truncate(damaged.path, damaged.size)
        dropped = [p for seq, p in _list_segments(self.path) if seq > damaged.seq]
        for seg_path in dropped:
            removed += os.path.getsize(seg_path)
            os.remove(seg_path)
        self.last_repair = {
            "segment": damaged.name,
            "offset": damaged.size,
            "bytes_removed": removed,
            "dropped_segments": [os.path.basename(p) for p in dropped],
            "reason": "checksum" if self.checksum_tail is not None else "torn",
        }
        self.repairs += 1
        self.torn_tail = None
        self.checksum_tail = None
        return removed


_TYPE_BY_NAME = {kind.value: kind for kind in TypeKind}


def _column_to_payload(column: Column) -> list:
    return [column.name, column.dtype.kind.value, column.nullable, column.dtype.width]


def _column_from_payload(entry: Sequence) -> Column:
    name, type_name, nullable, width = entry
    return Column(name, DataType(_TYPE_BY_NAME[type_name], width=width), nullable)


def log_create_relation(log: WriteAheadLog, name: str, columns: Sequence[Column]) -> None:
    log.append(
        LogKind.CREATE_RELATION,
        {"name": name, "columns": [_column_to_payload(c) for c in columns]},
    )


def log_create_index(
    log: WriteAheadLog,
    name: str,
    relation: str,
    key_columns: Sequence[str],
    ordered: bool,
) -> None:
    log.append(
        LogKind.CREATE_INDEX,
        {
            "name": name,
            "relation": relation,
            "key_columns": list(key_columns),
            "ordered": ordered,
        },
    )


def replay_record(database, record: LogRecord) -> None:
    """Re-execute one log record against ``database``.

    Shared by :func:`recover` and snapshot-based recovery
    (:func:`repro.engine.snapshot.recover_from_snapshot`), so the two
    paths cannot drift apart.
    """
    payload = record.payload
    if record.kind is LogKind.CREATE_RELATION:
        database.create_relation(
            payload["name"],
            [_column_from_payload(entry) for entry in payload["columns"]],
        )
    elif record.kind is LogKind.CREATE_INDEX:
        database.create_index(
            payload["name"],
            payload["relation"],
            payload["key_columns"],
            ordered=payload["ordered"],
        )
    elif record.kind is LogKind.INSERT:
        # Idempotency keys ride along so replica/recovered WALs carry
        # them too — the net tier's dedup table is rebuilt by scanning
        # whichever log survives a failover.
        database.insert(
            payload["relation"], payload["values"], idem=payload.get("idem")
        )
    elif record.kind is LogKind.DELETE:
        database.delete(
            payload["relation"],
            RowId(payload["page_no"], payload["slot_no"]),
            idem=payload.get("idem"),
        )
    elif record.kind is LogKind.UPDATE:
        database.update(
            payload["relation"],
            RowId(payload["page_no"], payload["slot_no"]),
            idem=payload.get("idem"),
            **payload["changes"],
        )
    elif record.kind is LogKind.CHECKPOINT:
        return
    else:  # pragma: no cover - enum is closed
        raise EngineError(f"unknown log record kind {record.kind!r}")


def recover(log: WriteAheadLog, database_factory=None):
    """Replay ``log`` into a fresh database and return it.

    ``database_factory`` builds the empty instance (defaults to a
    plain :class:`~repro.engine.database.Database`); replay re-executes
    every logged statement in order, so the recovered heap, indexes,
    and row addressing match the pre-crash state exactly.
    """
    from repro.engine.database import Database

    database = database_factory() if database_factory is not None else Database()
    for record in log.records():
        replay_record(database, record)
    return database
