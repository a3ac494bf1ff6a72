"""Tests for write-ahead logging and crash recovery."""

import pytest

from repro.engine import (
    Column,
    Database,
    INTEGER,
    LogKind,
    TEXT,
    WriteAheadLog,
    recover,
)


def build_logged_db(wal: WriteAheadLog) -> Database:
    db = Database(wal=wal)
    db.create_relation(
        "t", [Column("id", INTEGER, nullable=False), Column("v", TEXT)]
    )
    db.create_index("t_id", "t", ["id"])
    return db


def table_contents(db: Database, name: str = "t"):
    return sorted(tuple(r.values) for r in db.catalog.relation(name).scan_rows())


class TestLogging:
    def test_ddl_and_dml_logged_in_order(self):
        wal = WriteAheadLog()
        db = build_logged_db(wal)
        db.insert("t", (1, "a"))
        kinds = [r.kind for r in wal.records()]
        assert kinds == [LogKind.CREATE_RELATION, LogKind.CREATE_INDEX, LogKind.INSERT]
        assert wal.last_lsn == 3

    def test_delete_and_update_logged_with_rowid(self):
        wal = WriteAheadLog()
        db = build_logged_db(wal)
        row_id = db.insert("t", (1, "a"))
        db.update("t", row_id, v="b")
        db.delete("t", row_id)
        update_rec, delete_rec = list(wal.records())[-2:]
        assert update_rec.kind is LogKind.UPDATE
        assert update_rec.payload["changes"] == {"v": "b"}
        assert delete_rec.payload["page_no"] == row_id.page_no
        assert delete_rec.payload["slot_no"] == row_id.slot_no

    def test_failed_statement_not_logged(self):
        wal = WriteAheadLog()
        db = build_logged_db(wal)
        size_before = len(wal)
        with pytest.raises(Exception):
            db.insert("t", (None, "bad"))  # violates NOT NULL
        assert len(wal) == size_before

    def test_no_wal_means_no_logging(self):
        db = Database()
        db.create_relation("t", [Column("id", INTEGER)])
        db.insert("t", (1,))
        assert db.wal is None

    def test_checkpoint_marker(self):
        wal = WriteAheadLog()
        wal.checkpoint()
        [record] = wal.records()
        assert record.kind is LogKind.CHECKPOINT


class TestRecovery:
    def test_recover_reproduces_contents_and_indexes(self):
        wal = WriteAheadLog()
        db = build_logged_db(wal)
        ids = [db.insert("t", (i, f"v{i}")) for i in range(20)]
        db.delete("t", ids[4])
        db.update("t", ids[7], v="patched")
        recovered = recover(wal)
        assert table_contents(recovered) == table_contents(db)
        assert recovered.catalog.index("t_id").entry_count == 19
        assert recovered.catalog.index("t_id").probe(7)

    def test_recovered_rowids_match_original(self):
        """Replay determinism: the recovered database addresses rows at
        the same (page, slot) ids, so a second crash/recover cycle of
        the *recovered* instance also works."""
        wal = WriteAheadLog()
        db = build_logged_db(wal)
        ids = [db.insert("t", (i, "x" * 50)) for i in range(30)]
        db.delete("t", ids[10])
        recovered = recover(wal)
        original = {rid: row.values for rid, row in db.catalog.relation("t").scan()}
        replayed = {rid: row.values for rid, row in recovered.catalog.relation("t").scan()}
        assert original == replayed

    def test_recovery_chain(self):
        """Recover, keep writing (with a fresh log), recover again."""
        wal1 = WriteAheadLog()
        db = build_logged_db(wal1)
        db.insert("t", (1, "a"))
        recovered = recover(wal1, database_factory=lambda: Database(wal=WriteAheadLog()))
        recovered.insert("t", (2, "b"))
        # The second instance logged DDL? No — replay bypassed via factory
        # wal only captured the replayed statements plus the new insert.
        assert table_contents(recovered) == [(1, "a"), (2, "b")]
        second = recover(recovered.wal)
        assert table_contents(second) == [(1, "a"), (2, "b")]

    def test_empty_log_recovers_empty_database(self):
        recovered = recover(WriteAheadLog())
        assert list(recovered.catalog.relations()) == []


class TestFilePersistence:
    def test_log_survives_process_boundary(self, tmp_path):
        path = str(tmp_path / "engine.wal")
        wal = WriteAheadLog(path)
        db = build_logged_db(wal)
        for i in range(10):
            db.insert("t", (i, f"v{i}"))
        db.delete_where("t", lambda row: row["id"] % 3 == 0)
        expected = table_contents(db)
        wal.close()
        del db, wal  # "crash": all in-memory state gone
        reloaded = WriteAheadLog.load(path)
        recovered = recover(reloaded)
        assert table_contents(recovered) == expected

    def test_json_roundtrip_of_records(self, tmp_path):
        path = str(tmp_path / "engine.wal")
        wal = WriteAheadLog(path)
        db = build_logged_db(wal)
        db.insert("t", (1, "quote ' and unicode é"))
        wal.close()
        reloaded = WriteAheadLog.load(path)
        assert [r.frame for r in reloaded.records()] == [
            r.frame for r in WriteAheadLog.load(path).records()
        ]
        recovered = recover(reloaded)
        assert table_contents(recovered) == [(1, "quote ' and unicode é")]


class TestPMVAfterRecovery:
    def test_pmv_restarts_empty_and_stays_correct(self):
        """PMVs need no recovery: after a crash the cache restarts
        empty and the first query refills it — answers stay exact."""
        from repro.core import Discretization, PartialMaterializedView, PMVExecutor
        from repro.engine import (
            EqualityDisjunction,
            JoinEquality,
            QueryTemplate,
            SelectionSlot,
            SlotForm,
        )

        wal = WriteAheadLog()
        db = Database(wal=wal)
        db.create_relation("r", [Column("c", INTEGER), Column("f", INTEGER)])
        db.create_relation("s", [Column("d", INTEGER), Column("g", INTEGER)])
        db.create_index("r_f", "r", ["f"])
        db.create_index("s_d", "s", ["d"])
        for i in range(40):
            db.insert("r", (i % 8, i % 4))
            db.insert("s", (i % 8, i % 3))
        template = QueryTemplate(
            "qt",
            ("r", "s"),
            ("r.c", "s.d"),
            (JoinEquality("r", "c", "s", "d"),),
            (
                SelectionSlot("r", "r.f", SlotForm.EQUALITY),
                SelectionSlot("s", "s.g", SlotForm.EQUALITY),
            ),
        )
        view = PartialMaterializedView(template, Discretization(template), 2, 8)
        executor = PMVExecutor(db, view)
        query = template.bind(
            [EqualityDisjunction("r.f", [1]), EqualityDisjunction("s.g", [2])]
        )
        before = sorted(tuple(r.values) for r in executor.execute(query).all_rows())

        recovered_db = recover(wal)
        fresh_view = PartialMaterializedView(template, Discretization(template), 2, 8)
        fresh_executor = PMVExecutor(recovered_db, fresh_view)
        cold = fresh_executor.execute(query)
        assert cold.partial_rows == []  # cache restarted empty
        assert sorted(tuple(r.values) for r in cold.all_rows()) == before
        warm = fresh_executor.execute(query)
        assert warm.had_partial_results  # and refilled itself


class TestChecksummedRecords:
    """CRC32-per-record framing (DESIGN.md §11): every record line
    carries a checksum over its canonical body, verified on every
    parse — replay, reload, and the replication ship path alike."""

    def test_record_json_carries_crc(self):
        import json
        import zlib

        wal = WriteAheadLog()
        db = build_logged_db(wal)
        db.insert("t", (1, "a"))
        for record in wal.records():
            crc, body = record.frame[:8], record.frame[9:-1]
            assert crc == f"{zlib.crc32(body.encode()):08x}"
            assert json.loads(body) == {
                "lsn": record.lsn, "kind": record.kind.value, "payload": record.payload
            }

    def test_bitflip_detected_on_parse(self):
        from repro.engine.wal import LogRecord
        from repro.errors import WALChecksumError, WALCorruptionError

        wal = WriteAheadLog()
        db = build_logged_db(wal)
        db.insert("t", (1, "a"))
        frame = list(wal.records())[-1].frame
        flipped = frame.replace('[1,"a"]', '[2,"flipped"]')
        assert flipped != frame
        with pytest.raises(WALChecksumError):
            LogRecord.decode(flipped)
        # The checksum error is a corruption error: one except clause
        # covers torn, structural, and bit-rot damage.
        with pytest.raises(WALCorruptionError):
            LogRecord.decode(flipped)

    def test_record_without_crc_rejected(self):
        import json

        from repro.engine.wal import LogRecord
        from repro.errors import WALCorruptionError

        with pytest.raises(WALCorruptionError):
            LogRecord.decode(
                json.dumps({"lsn": 1, "kind": "insert", "payload": {"relation": "t"}})
                + "\n"
            )

    def _corrupt_payload_of_record(self, path, index):
        import json

        with open(path) as handle:
            lines = handle.read().splitlines()
        crc, body = lines[index].split(" ", 1)
        data = json.loads(body)
        data["payload"]["values"] = [999, "rot"]
        lines[index] = f"{crc} {json.dumps(data)}"  # stale crc now disagrees
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")

    def test_midlog_mismatch_stops_load_at_last_good_record(self, tmp_path):
        path = str(tmp_path / "engine.wal")
        wal = WriteAheadLog(path)
        db = build_logged_db(wal)
        for i in range(4):
            db.insert("t", (i, f"v{i}"))
        wal.close()
        self._corrupt_payload_of_record(f"{path}/wal-00000001.seg", 3)  # second insert of six lines
        loaded = WriteAheadLog.load(path)
        # Everything before the rotten record is trusted, nothing after.
        assert loaded.last_lsn == 3
        assert loaded.checksum_failures == 1
        assert loaded.checksum_tail is not None
        assert loaded.needs_repair
        recovered = recover(loaded)
        assert table_contents(recovered) == [(0, "v0")]

    def test_repair_truncates_at_first_mismatch(self, tmp_path):
        path = str(tmp_path / "engine.wal")
        wal = WriteAheadLog(path)
        db = build_logged_db(wal)
        for i in range(4):
            db.insert("t", (i, f"v{i}"))
        wal.close()
        self._corrupt_payload_of_record(f"{path}/wal-00000001.seg", 3)
        loaded = WriteAheadLog.load(path)
        removed = loaded.repair()
        assert removed > 0
        assert not loaded.needs_repair
        reloaded = WriteAheadLog.load(path)
        assert reloaded.last_lsn == 3
        assert reloaded.checksum_failures == 0
        assert not reloaded.needs_repair

    def test_fenced_log_refuses_appends(self):
        from repro.errors import WALFencedError

        wal = WriteAheadLog()
        db = build_logged_db(wal)
        wal.fence(7)
        assert wal.fenced_by_epoch == 7
        with pytest.raises(WALFencedError):
            wal.append(LogKind.INSERT, {"relation": "t", "values": [1, "a"]})
        with pytest.raises(WALFencedError):
            db.insert("t", (1, "a"))
