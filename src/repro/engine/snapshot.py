"""Database snapshots (checkpointing).

A snapshot captures the *physical* state of every relation — pages,
slots, tombstones — plus index definitions, as a JSON-safe document.
Because the page layout is preserved exactly, row ids stay valid, so
recovery can restore a snapshot and replay only the log records after
its checkpoint LSN instead of the whole history::

    lsn = checkpoint(database)           # snapshot + WAL marker
    snapshot = take_snapshot(database)
    ...
    restored = recover_from_snapshot(snapshot, wal)

Like the plain :func:`~repro.engine.wal.recover`, snapshots cover the
durable substrate only; templates and PMVs are in-memory objects that
the application re-registers (PMVs restart empty by design).

A serialized snapshot is one :mod:`~repro.engine.codec` frame, the
WAL's own (:func:`snapshot_to_json` writes it, :func:`snapshot_from_json`
verifies it): a corrupted snapshot file fails loudly with
:class:`~repro.errors.SnapshotCorruptionError` instead of silently
installing a garbled page image.
"""

from __future__ import annotations

from typing import Any

from repro.engine import codec
from repro.engine.database import Database
from repro.engine.page import Page
from repro.engine.wal import WriteAheadLog, _column_from_payload, _column_to_payload
from repro.errors import EngineError, SnapshotCorruptionError

__all__ = [
    "take_snapshot",
    "restore_snapshot",
    "checkpoint",
    "recover_from_snapshot",
    "snapshot_to_json",
    "snapshot_from_json",
]

SNAPSHOT_FORMAT = 1


def take_snapshot(database: Database) -> dict[str, Any]:
    """Capture the database's physical state as a JSON-safe dict."""
    database.buffer_pool.flush_all()
    relations = []
    for relation in database.catalog.relations():
        pages = []
        for page_no in relation._page_nos:
            page = database.disk.read_page(page_no)
            pages.append(
                {
                    "page_no": page_no,
                    "capacity": page.capacity,
                    "slots": [
                        None if payload is None else list(payload)
                        for payload in page._slots
                    ],
                    "sizes": list(page._sizes),
                }
            )
        relations.append(
            {
                "name": relation.name,
                "columns": [_column_to_payload(c) for c in relation.schema.columns],
                "pages": pages,
                "open_pages": list(relation._open_page_nos),
            }
        )
    indexes = [
        {
            "name": index.name,
            "relation": index.relation.name,
            "key_columns": list(index.key_columns),
            "ordered": index.supports_range(),
        }
        for relation in database.catalog.relations()
        for index in database.catalog.indexes_on(relation.name)
    ]
    checkpoint_lsn = database.wal.last_lsn if database.wal is not None else 0
    return {
        "format": SNAPSHOT_FORMAT,
        "checkpoint_lsn": checkpoint_lsn,
        "next_page_no": database.disk._next_page_no,
        "relations": relations,
        "indexes": indexes,
    }


def restore_snapshot(
    snapshot: dict[str, Any],
    buffer_pool_pages: int = 1000,
    wal: WriteAheadLog | None = None,
    page_size: int | None = None,
) -> Database:
    """Rebuild a database from a snapshot, page layout included.

    ``page_size`` must match the crashed instance's when log records
    will be replayed on top: restored pages keep their stored
    capacities, but pages allocated *during replay* use this size, and
    replay addresses rows by (page, slot) — a different capacity packs
    rows differently and breaks that addressing.
    """
    if snapshot.get("format") != SNAPSHOT_FORMAT:
        raise EngineError(f"unsupported snapshot format {snapshot.get('format')!r}")
    if page_size is None:
        database = Database(buffer_pool_pages=buffer_pool_pages, wal=wal)
    else:
        database = Database(
            buffer_pool_pages=buffer_pool_pages, page_size=page_size, wal=wal
        )
    suppress = database.wal
    database.wal = None  # restoration itself must not be re-logged
    try:
        for rel_entry in snapshot["relations"]:
            columns = [_column_from_payload(c) for c in rel_entry["columns"]]
            relation = database.create_relation(rel_entry["name"], columns)
            row_count = 0
            for page_entry in rel_entry["pages"]:
                page = Page(page_entry["page_no"], capacity=page_entry["capacity"])
                # Rebuild the slot directory verbatim (Page.insert would
                # reuse tombstones and renumber slots, breaking row ids).
                for payload, size in zip(page_entry["slots"], page_entry["sizes"]):
                    if payload is None:
                        page._slots.append(None)
                        page._sizes.append(0)
                    else:
                        page._slots.append(tuple(payload))
                        page._sizes.append(size)
                        row_count += 1
                from repro.engine.page import PAGE_HEADER, SLOT_OVERHEAD

                page._used = (
                    PAGE_HEADER
                    + sum(page._sizes)
                    + SLOT_OVERHEAD * len(page._slots)
                )
                page.dirty = False
                database.disk._pages[page.page_no] = page
                relation._page_nos.append(page.page_no)
            relation._open_page_nos = list(rel_entry["open_pages"])
            # Rebuild the membership set alongside the list: with a
            # stale (empty) set, the first post-restore delete would
            # re-append an already-open page and shift which page the
            # next insert picks — a restored heap must place future
            # rows exactly where the live heap would have.
            relation._open_page_set = set(rel_entry["open_pages"])
            relation._row_count = row_count
        database.disk._next_page_no = snapshot["next_page_no"]
        for idx_entry in snapshot["indexes"]:
            database.create_index(
                idx_entry["name"],
                idx_entry["relation"],
                idx_entry["key_columns"],
                ordered=idx_entry["ordered"],
            )
    finally:
        database.wal = suppress
    return database


def checkpoint(database: Database) -> dict[str, Any]:
    """Append a WAL checkpoint marker and return the paired snapshot.

    This is also the WAL's truncation driver: once the snapshot is
    taken, every segment fully covered by the checkpoint
    and by every registered consumer (replication links, the CDC
    maintainer — see :class:`~repro.engine.wal.LsnRetentionRegistry`)
    is reclaimed to the archive, bounding the live log.
    """
    if database.wal is None:
        raise EngineError("checkpoint requires a database with a WAL")
    database.wal.checkpoint()
    snapshot = take_snapshot(database)
    database.wal.reclaim()
    return snapshot


def recover_from_snapshot(
    snapshot: dict[str, Any],
    log: WriteAheadLog,
    buffer_pool_pages: int = 1000,
    page_size: int | None = None,
) -> Database:
    """Restore a snapshot, then replay only the post-checkpoint log."""
    from repro.engine.wal import replay_record

    database = restore_snapshot(
        snapshot, buffer_pool_pages=buffer_pool_pages, page_size=page_size
    )
    for record in log.records(after_lsn=snapshot["checkpoint_lsn"]):
        replay_record(database, record)
    return database


def snapshot_to_json(snapshot: dict[str, Any]) -> str:
    """Serialize a snapshot for storage: one codec frame."""
    return codec.encode(snapshot)


def snapshot_from_json(text: str) -> dict[str, Any]:
    """Parse a stored snapshot; garbage, a truncated file or a CRC
    mismatch is a :class:`~repro.errors.SnapshotCorruptionError`."""
    return codec.decode(text, SnapshotCorruptionError)
