"""On-disk WAL tests: rotation, checkpoint truncation, archive replay,
retention pinning, typed damage and continuity checks, repair
reporting, and ENOSPC probes."""

import json
import os

import pytest

from repro.engine import (
    Column,
    Database,
    INTEGER,
    LogKind,
    TEXT,
    WriteAheadLog,
    codec,
    recover,
)
from repro.engine.snapshot import checkpoint as snapshot_checkpoint
from repro.engine.wal import LsnRetentionRegistry
from repro.errors import DiskFullError, EngineError, WALCorruptionError


def build_db(wal: WriteAheadLog) -> Database:
    db = Database(wal=wal)
    db.create_relation(
        "t", [Column("id", INTEGER, nullable=False), Column("v", TEXT)]
    )
    db.create_index("t_id", "t", ["id"])
    return db


def segmented(tmp_path, segment_bytes: int = 512, **kwargs) -> WriteAheadLog:
    return WriteAheadLog(
        path=str(tmp_path / "wal"), segment_bytes=segment_bytes, **kwargs
    )


def fill(db: Database, count: int, start: int = 0) -> None:
    for i in range(start, start + count):
        db.insert("t", (i, f"value-{i}"))


def thirty_records(tmp_path) -> WriteAheadLog:
    """30 one-row inserts over 200-byte segments, closed."""
    wal = segmented(tmp_path, segment_bytes=200)
    for i in range(30):
        wal.reserve()
        wal.append(LogKind.INSERT, {"relation": "t", "values": [i, f"v{i}"]})
    wal.close()
    return wal


def live_segment_files(wal: WriteAheadLog) -> list[str]:
    return sorted(
        name for name in os.listdir(wal.path) if name.startswith("wal-")
    )


class TestRotation:
    def test_appends_rotate_into_multiple_segments(self, tmp_path):
        wal = segmented(tmp_path)
        db = build_db(wal)
        fill(db, 40)
        stats = wal.resource_stats()
        assert stats["segments_rotated"] >= 2
        assert stats["live_segments"] == stats["segments_rotated"] + 1
        assert len(live_segment_files(wal)) == stats["live_segments"]
        # The log is one continuous LSN sequence across segments.
        lsns = [r.lsn for r in wal.records()]
        assert lsns == list(range(1, len(lsns) + 1))

    def test_recovery_across_segment_boundaries(self, tmp_path):
        wal = segmented(tmp_path)
        db = build_db(wal)
        fill(db, 40)
        db.delete("t", next(iter(db.catalog.relation("t").scan()))[0])
        wal.close()
        reloaded = WriteAheadLog.load(str(tmp_path / "wal"))
        assert len(reloaded) == len(wal)
        recovered = recover(reloaded)
        want = sorted(tuple(r.values) for r in db.catalog.relation("t").scan_rows())
        got = sorted(
            tuple(r.values) for r in recovered.catalog.relation("t").scan_rows()
        )
        assert got == want


class TestReclaim:
    def test_checkpoint_truncates_to_archive(self, tmp_path):
        wal = segmented(tmp_path)
        db = build_db(wal)
        fill(db, 40)
        before = len(live_segment_files(wal))
        snapshot_checkpoint(db)
        stats = wal.resource_stats()
        assert stats["segments_reclaimed"] >= 1
        assert len(live_segment_files(wal)) < before
        # Reclaimed segments moved (not deleted): archive holds them.
        archived = os.listdir(wal.archive_dir)
        assert len(archived) == stats["segments_reclaimed"]
        # Resident memory shrinks with truncation.
        assert stats["resident_records"] < stats["truncated_lsn"] + len(wal)

    def test_retention_pin_blocks_reclaim_until_released(self, tmp_path):
        wal = segmented(tmp_path)
        db = build_db(wal)
        fill(db, 20)
        wal.retention.update("cdc", 2)  # a consumer still needs LSN 3+
        snapshot_checkpoint(db)
        assert wal.resource_stats()["segments_reclaimed"] == 0
        wal.retention.update("cdc", wal.last_lsn)
        assert wal.reclaim() >= 1

    def test_records_replays_from_archive(self, tmp_path):
        """A consumer attached behind the truncation point (a lagging
        replica, a late CDC drain) reads reclaimed segments back from
        the archive instead of bootstrapping from a snapshot."""
        wal = segmented(tmp_path)
        db = build_db(wal)
        fill(db, 40)
        all_lsns = [r.lsn for r in wal.records()]
        snapshot_checkpoint(db)
        assert wal.truncated_lsn > 0
        replayed = [r.lsn for r in wal.records(after_lsn=0)]
        # Checkpoint record appended after the first listing.
        assert replayed[: len(all_lsns)] == all_lsns
        assert wal.archive_reads >= 1

    def test_archive_prune_bounds_footprint_and_fails_loud(self, tmp_path):
        wal = segmented(tmp_path, archive_max_bytes=600)
        db = build_db(wal)
        fill(db, 60)
        snapshot_checkpoint(db)
        stats = wal.resource_stats()
        assert stats["segments_pruned"] >= 1
        assert stats["archived_bytes"] <= 600
        with pytest.raises(EngineError, match="bootstrap from a snapshot"):
            list(wal.records(after_lsn=0))
        # Past the pruned horizon the archive still serves.
        assert [r.lsn for r in wal.records(after_lsn=wal.pruned_lsn)]

    def test_load_restores_pruned_horizon_and_custom_archive_dir(self, tmp_path):
        """A reloaded pruned log fails as loudly as the live one did,
        instead of streaming a history that starts mid-way."""
        wal = segmented(
            tmp_path, archive_dir=str(tmp_path / "cold"), archive_max_bytes=600
        )
        db = build_db(wal)
        fill(db, 60)
        snapshot_checkpoint(db)
        assert wal.pruned_lsn > 0
        wal.close()
        reloaded = WriteAheadLog.load(wal.path, archive_dir=wal.archive_dir)
        assert reloaded.pruned_lsn == wal.pruned_lsn
        with pytest.raises(EngineError, match="bootstrap from a snapshot"):
            list(reloaded.records(after_lsn=0))
        assert [r.lsn for r in reloaded.records(after_lsn=reloaded.pruned_lsn)] == [
            r.lsn for r in wal.records(after_lsn=wal.pruned_lsn)
        ]

    def test_load_directory_restores_archive_state(self, tmp_path):
        wal = segmented(tmp_path)
        db = build_db(wal)
        fill(db, 40)
        snapshot_checkpoint(db)
        truncated = wal.truncated_lsn
        last = wal.last_lsn
        wal.close()
        reloaded = WriteAheadLog.load(str(tmp_path / "wal"))
        assert reloaded.truncated_lsn == truncated
        assert reloaded.last_lsn == last
        assert [r.lsn for r in reloaded.records(after_lsn=0)] == list(
            range(1, last + 1)
        )


class TestDamage:
    def _grown(self, tmp_path, count: int = 40):
        wal = segmented(tmp_path)
        db = build_db(wal)
        fill(db, count)
        wal.close()
        return wal

    def test_torn_tail_in_final_segment_repaired_and_reported(self, tmp_path):
        wal = self._grown(tmp_path)
        final = sorted(s.path for s in wal._segments)[-1]
        with open(final, "a", encoding="utf-8") as handle:
            handle.write('{"lsn": 99, "kind": "insert", "crc"')  # no newline
        log = WriteAheadLog.load(str(tmp_path / "wal"))
        assert log.has_torn_tail
        removed = log.repair()
        assert removed > 0
        assert log.repairs == 1
        assert log.last_repair["reason"] == "torn"
        assert log.last_repair["segment"] == os.path.basename(final)
        assert log.last_repair["bytes_removed"] == removed
        reread = WriteAheadLog.load(str(tmp_path / "wal"))
        assert not reread.has_torn_tail
        assert len(reread) == len(log)

    def test_checksum_damage_mid_earlier_segment_drops_later_segments(
        self, tmp_path
    ):
        wal = self._grown(tmp_path)
        live = sorted(s.path for s in wal._segments)
        assert len(live) >= 3
        victim = live[-3]  # segment N-2: two live segments follow it
        with open(victim, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        assert "value-" in lines[1]
        lines[1] = lines[1].replace("value-", "hacked", 1)  # breaks the CRC
        with open(victim, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        log = WriteAheadLog.load(str(tmp_path / "wal"))
        assert log.needs_repair
        assert not log.has_torn_tail  # not a torn write: a bad checksum
        removed = log.repair()
        assert removed > 0
        assert log.last_repair["reason"] == "checksum"
        assert log.last_repair["segment"] == os.path.basename(victim)
        assert len(log.last_repair["dropped_segments"]) == 2
        reread = WriteAheadLog.load(str(tmp_path / "wal"))
        assert not reread.needs_repair
        # Everything before the damage point survived.
        assert reread.last_lsn >= 1
        recover(reread)  # parses and replays cleanly

    def test_archive_damage_is_not_repairable(self, tmp_path):
        wal = segmented(tmp_path)
        db = build_db(wal)
        fill(db, 40)
        snapshot_checkpoint(db)
        wal.close()
        archived = sorted(os.listdir(wal.archive_dir))
        path = os.path.join(wal.archive_dir, archived[0])
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text.replace('"value-0"', '"tampered"', 1))
        with pytest.raises(WALCorruptionError):
            WriteAheadLog.load(str(tmp_path / "wal"))

    def test_garbage_in_archive_is_typed_corruption(self, tmp_path):
        wal = segmented(tmp_path)
        db = build_db(wal)
        fill(db, 40)
        snapshot_checkpoint(db)
        wal.close()
        archived = sorted(os.listdir(wal.archive_dir))
        with open(os.path.join(wal.archive_dir, archived[0]), "a") as handle:
            handle.write("{not json\n")
        with pytest.raises(WALCorruptionError, match="archive"):
            WriteAheadLog.load(str(tmp_path / "wal"))
        # The live object reads the same bytes through the same reader.
        with pytest.raises(WALCorruptionError):
            list(wal.records(after_lsn=0))

    @pytest.mark.parametrize(
        "line",
        [
            "[]",
            "7",
            "null",
            '"text"',
            '{"lsn":"x","kind":"insert","payload":{},"crc":1}',
            '{"lsn":true,"kind":"insert","payload":{},"crc":1}',
            '{"lsn":3,"kind":[],"payload":{},"crc":1}',
            '{"lsn":3,"kind":"insert","payload":[],"crc":1}',
            # Framed, this one is a record, but its LSN runs backwards.
            '{"lsn":3,"kind":"insert","payload":{}}',
            '{"lsn":0,"kind":"insert","payload":{}}',
        ],
    )
    def test_json_that_is_not_a_record_is_typed_corruption(self, tmp_path, line):
        wal = self._grown(tmp_path, count=3)
        [segment] = wal._segments
        with open(segment.path, "a", encoding="utf-8") as handle:
            handle.write(codec.encode(json.loads(line)))  # a good CRC
        with pytest.raises(WALCorruptionError):
            WriteAheadLog.load(str(tmp_path / "wal"))


class TestContinuity:
    """The replay is the system's ground truth: it may stop early and
    say so, but never skip history silently."""

    def test_missing_segment_is_corruption_not_a_clean_load(self, tmp_path):
        wal = thirty_records(tmp_path)
        assert len(wal._segments) >= 4
        os.remove(wal._segments[2].path)
        with pytest.raises(WALCorruptionError, match="wal-00000003.seg"):
            WriteAheadLog.load(str(tmp_path / "wal"))

    def test_gap_between_archive_and_live_is_corruption(self, tmp_path):
        wal = segmented(tmp_path)
        db = build_db(wal)
        fill(db, 40)
        snapshot_checkpoint(db)
        wal.close()
        assert wal._archived and len(wal._segments) == 1
        os.remove(wal._archived[-1].path)
        with pytest.raises(WALCorruptionError, match="missing"):
            WriteAheadLog.load(str(tmp_path / "wal"))

    def test_out_of_order_lsn_is_corruption(self, tmp_path):
        wal = thirty_records(tmp_path)
        first, second = wal._segments[0].path, wal._segments[1].path
        with open(first, "rb") as a, open(second, "rb") as b:
            first_bytes, second_bytes = a.read(), b.read()
        with open(first, "wb") as a, open(second, "wb") as b:
            a.write(second_bytes)
            b.write(first_bytes)
        with pytest.raises(WALCorruptionError, match="wal-00000002.seg"):
            WriteAheadLog.load(str(tmp_path / "wal"))

    def test_log_may_begin_mid_stream(self, tmp_path):
        """A pruned archive or a snapshot-bootstrapped replica starts
        past LSN 1 (and past segment 1): not damage."""
        wal = thirty_records(tmp_path)
        os.remove(wal._segments[0].path)
        reloaded = WriteAheadLog.load(str(tmp_path / "wal"))
        assert not reloaded.needs_repair
        lsns = [r.lsn for r in reloaded.records()]
        assert lsns == list(range(wal._segments[1].first_lsn, 31))


class TestOneLayout:
    def test_path_without_segment_bytes_is_one_unrotated_segment(self, tmp_path):
        wal = WriteAheadLog(path=str(tmp_path / "wal"))
        db = build_db(wal)
        fill(db, 40)
        assert live_segment_files(wal) == ["wal-00000001.seg"]
        stats = wal.resource_stats()
        assert stats["segments_rotated"] == 0
        assert stats["live_segments"] == 1
        assert stats["live_bytes"] == os.path.getsize(wal._segments[0].path)
        wal.close()
        assert len(WriteAheadLog.load(wal.path)) == len(wal)

    def test_constructing_over_a_used_directory_is_refused(self, tmp_path):
        wal = thirty_records(tmp_path)
        with pytest.raises(EngineError, match="load"):
            WriteAheadLog(path=wal.path, segment_bytes=200)
        with pytest.raises(EngineError, match="load"):
            WriteAheadLog(path=wal.path)
        # Nothing was written: the history on disk still ends at LSN 30.
        assert WriteAheadLog.load(wal.path).last_lsn == 30

    def test_a_regular_file_is_not_a_log(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_text("")
        with pytest.raises(EngineError, match="regular file"):
            WriteAheadLog(path=str(path))
        with pytest.raises(EngineError, match="directory"):
            WriteAheadLog.load(str(path))

    def test_faulty_wal_forwards_constructor_arguments(self, tmp_path):
        from repro.faults import FaultInjector, FaultPlan, FaultyWAL

        wal = FaultyWAL(
            FaultInjector(FaultPlan.none()),
            path=str(tmp_path / "wal"),
            segment_bytes=64,
            archive_dir=str(tmp_path / "cold"),
            archive_max_bytes=1000,
        )
        assert (wal.segment_bytes, wal.archive_max_bytes) == (64, 1000)
        assert wal.archive_dir == str(tmp_path / "cold")
        build_db(wal).insert("t", (1, "x" * 80))  # DDL overshot 64 bytes
        assert wal.segments_rotated == 1


class TestEnospcProbe:
    def test_reserve_fault_refuses_before_rotation(self, tmp_path):
        wal = segmented(tmp_path)
        wal.fault_check = lambda site: site == "wal.enospc"
        with pytest.raises(DiskFullError) as exc_info:
            wal.reserve()
        assert exc_info.value.site == "wal.enospc"
        import errno

        assert exc_info.value.errno == errno.ENOSPC
        assert isinstance(exc_info.value, OSError)

    def test_reserve_rotates_when_due(self, tmp_path):
        wal = segmented(tmp_path, segment_bytes=64)
        db = build_db(wal)
        db.insert("t", (1, "x" * 80))  # overshoots the segment budget
        rotated_before = wal.segments_rotated
        wal.reserve()
        assert wal.segments_rotated == rotated_before + 1


class TestRetentionRegistry:
    def test_floor_is_min_over_consumers(self):
        registry = LsnRetentionRegistry()
        assert registry.floor() is None
        registry.update("cdc", 10)
        registry.update("ship:replica-a", 4)
        assert registry.floor() == 4
        registry.release("ship:replica-a")
        assert registry.floor() == 10
        assert registry.positions() == {"cdc": 10}
