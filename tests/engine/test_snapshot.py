"""Tests for snapshots, checkpoints, and snapshot-based recovery."""

import pytest

from repro.engine import Column, Database, INTEGER, TEXT, WriteAheadLog
from repro.engine.snapshot import (
    checkpoint,
    recover_from_snapshot,
    restore_snapshot,
    snapshot_from_json,
    snapshot_to_json,
    take_snapshot,
)
from repro.errors import EngineError


def build_db(wal=None) -> Database:
    db = Database(wal=wal)
    db.create_relation(
        "t", [Column("id", INTEGER, nullable=False), Column("v", TEXT)]
    )
    db.create_index("t_id", "t", ["id"])
    return db


def contents(db, name="t"):
    return sorted(tuple(r.values) for r in db.catalog.relation(name).scan_rows())


def physical(db, name="t"):
    return {rid: row.values for rid, row in db.catalog.relation(name).scan()}


class TestSnapshotRestore:
    def test_roundtrip_contents_and_addresses(self):
        db = build_db()
        ids = [db.insert("t", (i, f"v{i}")) for i in range(25)]
        db.delete("t", ids[3])
        db.delete("t", ids[17])
        restored = restore_snapshot(take_snapshot(db))
        assert contents(restored) == contents(db)
        assert physical(restored) == physical(db)

    def test_indexes_rebuilt(self):
        db = build_db()
        for i in range(10):
            db.insert("t", (i % 3, "x"))
        restored = restore_snapshot(take_snapshot(db))
        index = restored.catalog.index("t_id")
        assert index.entry_count == 10
        assert len(index.probe(1)) == len(db.catalog.index("t_id").probe(1))

    def test_tombstones_preserve_slot_numbering(self):
        db = build_db()
        ids = [db.insert("t", (i, "x")) for i in range(5)]
        db.delete("t", ids[1])
        restored = restore_snapshot(take_snapshot(db))
        # The surviving row ids must address the same rows.
        for rid in (ids[0], ids[2], ids[4]):
            assert restored.catalog.relation("t").fetch(rid).values == (
                db.catalog.relation("t").fetch(rid).values
            )

    def test_writes_continue_after_restore(self):
        db = build_db()
        ids = [db.insert("t", (i, "pad" * 10)) for i in range(8)]
        db.delete("t", ids[2])
        restored = restore_snapshot(take_snapshot(db))
        new_id = restored.insert("t", (99, "fresh"))
        assert restored.catalog.relation("t").fetch(new_id)["id"] == 99
        assert restored.catalog.index("t_id").probe(99) == [new_id]

    def test_json_serialization_roundtrip(self):
        db = build_db()
        db.insert("t", (1, "hello"))
        text = snapshot_to_json(take_snapshot(db))
        restored = restore_snapshot(snapshot_from_json(text))
        assert contents(restored) == [(1, "hello")]

    def test_bad_format_rejected(self):
        with pytest.raises(EngineError):
            restore_snapshot({"format": 99})


class TestCheckpointRecovery:
    def test_recovery_replays_only_tail(self):
        wal = WriteAheadLog()
        db = build_db(wal=wal)
        for i in range(10):
            db.insert("t", (i, "early"))
        snap = checkpoint(db)
        tail_start = len(wal)
        db.insert("t", (100, "late"))
        db.delete_where("t", lambda row: row["id"] == 4)
        recovered = recover_from_snapshot(snap, wal)
        assert contents(recovered) == contents(db)
        assert physical(recovered) == physical(db)
        # Only the post-checkpoint records were needed.
        assert len(list(wal.records(after_lsn=snap["checkpoint_lsn"]))) == (
            len(wal) - tail_start
        )

    def test_checkpoint_requires_wal(self):
        with pytest.raises(EngineError):
            checkpoint(build_db())

    def test_post_checkpoint_ddl_replayed(self):
        wal = WriteAheadLog()
        db = build_db(wal=wal)
        db.insert("t", (1, "a"))
        snap = checkpoint(db)
        db.create_relation("extra", [Column("x", INTEGER)])
        db.create_index("extra_x", "extra", ["x"])
        db.insert("extra", (7,))
        recovered = recover_from_snapshot(snap, wal)
        assert contents(recovered, "extra") == [(7,)]
        assert recovered.catalog.index("extra_x").probe(7)

    def test_empty_tail_is_fine(self):
        wal = WriteAheadLog()
        db = build_db(wal=wal)
        db.insert("t", (1, "a"))
        snap = checkpoint(db)
        recovered = recover_from_snapshot(snap, wal)
        assert contents(recovered) == [(1, "a")]

    def test_chained_checkpoints(self):
        wal = WriteAheadLog()
        db = build_db(wal=wal)
        db.insert("t", (1, "a"))
        checkpoint(db)
        db.insert("t", (2, "b"))
        snap2 = checkpoint(db)
        db.insert("t", (3, "c"))
        recovered = recover_from_snapshot(snap2, wal)
        assert contents(recovered) == [(1, "a"), (2, "b"), (3, "c")]


class TestSnapshotChecksum:
    """CRC32 over the stored snapshot body: a rotten checkpoint must
    refuse to restore instead of resurrecting a subtly wrong heap."""

    def test_serialized_snapshot_carries_matching_crc(self):
        import json
        import zlib

        db = build_db()
        db.insert("t", (1, "a"))
        snapshot = take_snapshot(db)
        text = snapshot_to_json(snapshot)
        crc, body = text[:8], text[9:-1]
        assert text[8] == " " and text[-1] == "\n"
        assert crc == f"{zlib.crc32(body.encode()):08x}"
        assert json.loads(body) == snapshot

    def test_roundtrip_restores_identical_database(self):
        db = build_db()
        for i in range(12):
            db.insert("t", (i, f"v{i}"))
        text = snapshot_to_json(take_snapshot(db))
        restored = restore_snapshot(snapshot_from_json(text))
        assert contents(restored) == contents(db)
        assert physical(restored) == physical(db)

    def test_corrupted_body_refused(self):
        from repro.errors import SnapshotCorruptionError

        db = build_db()
        db.insert("t", (1, "payload"))
        text = snapshot_to_json(take_snapshot(db))
        tampered = text.replace('"payload"', '"tampered"')
        with pytest.raises(SnapshotCorruptionError):
            snapshot_from_json(tampered)

    def test_garbage_and_truncation_refused(self):
        from repro.errors import SnapshotCorruptionError

        db = build_db()
        text = snapshot_to_json(take_snapshot(db))
        for bad in ("not json at all", text[: len(text) // 2], "[1, 2, 3]"):
            with pytest.raises(SnapshotCorruptionError):
                snapshot_from_json(bad)

    def test_snapshot_without_crc_rejected(self):
        import json

        from repro.errors import SnapshotCorruptionError

        db = build_db()
        db.insert("t", (1, "a"))
        bare = json.dumps(take_snapshot(db), separators=(",", ":")) + "\n"
        with pytest.raises(SnapshotCorruptionError):
            snapshot_from_json(bare)


class TestRestoredHeapPlacement:
    def test_restored_heap_tracks_open_pages_like_the_live_heap(self):
        """Regression: ``restore_snapshot`` must rebuild the open-page
        *set* alongside the open-page list.  With a stale empty set,
        the first delete on an already-open page re-appends it, and the
        next insert lands on a different page than the live heap's —
        replayed physical addresses then point at the wrong rows."""
        from repro.engine import WriteAheadLog

        db = Database(wal=WriteAheadLog(), page_size=256, buffer_pool_pages=8)
        db.create_relation(
            "t", [Column("id", INTEGER, nullable=False), Column("v", TEXT)]
        )
        # Enough rows to close the first page and open a second.
        ids = [db.insert("t", (i, "x" * 24)) for i in range(20)]
        relation = db.catalog.relation("t")
        assert len(relation._page_nos) >= 2
        restored = restore_snapshot(take_snapshot(db), buffer_pool_pages=8)
        restored_rel = restored.catalog.relation("t")
        assert restored_rel._open_page_set == relation._open_page_set
        # Delete from a closed page and from the open page, then
        # insert: both heaps must pick the same page and slot.
        for target in (db, restored):
            target.delete("t", ids[0])
            target.delete("t", ids[-1])
        assert db.insert("t", (777, "y" * 24)) == restored.insert(
            "t", (777, "y" * 24)
        )
        assert physical(restored) == physical(db)
