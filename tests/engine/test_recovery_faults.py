"""Crash-recovery under injected faults.

Unit coverage for the torn-tail WAL handling (satellite of the torture
harness) plus targeted crash-window tests: a statement interrupted
before/during its log append never happened; one interrupted after the
append is replayed.  The sweep tests drive the real torture harness
(:mod:`repro.bench.torture`) across every WAL append and checkpoint
boundary its workload reaches.
"""

import os

import pytest

from repro.bench.torture import enumerate_points, run_point
from repro.check import contents_of
from repro.engine import Column, Database, INTEGER, TEXT, WriteAheadLog, recover
from repro.engine.wal import LogKind, LogRecord
from repro.errors import EngineError, WALCorruptionError
from repro.faults import (
    FaultInjector,
    FaultMode,
    FaultPlan,
    FaultSpec,
    SimulatedCrash,
    build_faulty_database,
)


def _write_lines(wal_dir, lines, torn_tail=None):
    """Lay ``lines`` down as the first segment of the log directory
    ``wal_dir``; returns the segment's path."""
    os.makedirs(wal_dir)
    path = os.path.join(wal_dir, "wal-00000001.seg")
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")
        if torn_tail is not None:
            handle.write(torn_tail)
    return path


def _line(lsn, kind, payload):
    """A record's frame without its newline."""
    return LogRecord.make(lsn, kind, payload).frame[:-1]


def _record(lsn, values):
    return _line(lsn, LogKind.INSERT, {"relation": "t", "values": values})


class TestTornTail:
    def test_partial_final_line_is_tolerated_and_reported(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        _write_lines(
            wal_dir,
            [_record(1, [1, "a"]), _record(2, [2, "b"])],
            torn_tail=_record(3, [3, "c"])[:17],
        )
        log = WriteAheadLog.load(wal_dir)
        assert log.has_torn_tail
        assert len(log) == 2
        assert [r.lsn for r in log.records()] == [1, 2]

    def test_complete_final_line_without_newline_is_torn(self, tmp_path):
        # The newline (and the fsync covering it) never hit the disk, so
        # the append was still in flight: the statement was never acked.
        wal_dir = str(tmp_path / "wal")
        _write_lines(wal_dir, [_record(1, [1, "a"])], torn_tail=_record(2, [2, "b"]))
        log = WriteAheadLog.load(wal_dir)
        assert log.has_torn_tail
        assert len(log) == 1

    def test_repair_truncates_to_last_complete_record(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        intact = [_record(1, [1, "a"]), _record(2, [2, "b"])]
        path = _write_lines(wal_dir, intact, torn_tail=_record(3, [3, "c"])[:11])
        log = WriteAheadLog.load(wal_dir)
        removed = log.repair()
        assert removed == 11
        assert not WriteAheadLog.load(wal_dir).has_torn_tail
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == "".join(line + "\n" for line in intact)

    def test_repair_is_a_noop_on_a_clean_log(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        _write_lines(wal_dir, [_record(1, [1, "a"])])
        log = WriteAheadLog.load(wal_dir)
        assert not log.has_torn_tail
        assert log.repair() == 0

    def test_repair_requires_a_loaded_log(self):
        with pytest.raises(EngineError):
            WriteAheadLog().repair()

    def test_damage_before_the_tail_is_corruption(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        _write_lines(
            wal_dir, [_record(1, [1, "a"]), "{garbage", _record(3, [3, "c"])]
        )
        with pytest.raises(WALCorruptionError):
            WriteAheadLog.load(wal_dir)

    def test_recover_skips_the_torn_statement(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        create = _line(
            1,
            LogKind.CREATE_RELATION,
            {"name": "t", "columns": [["k", "integer", False, None]]},
        )

        def insert(lsn, key):
            return _record(lsn, [key])

        _write_lines(wal_dir, [create, insert(2, 7)], torn_tail=insert(3, 8)[:20])
        recovered = recover(WriteAheadLog.load(wal_dir))
        assert contents_of(recovered, ["t"]) == {"t": [(7,)]}


PAGE = 512


def _faulty_db(tmp_path, plan):
    injector = FaultInjector(plan)
    database = build_faulty_database(
        injector, str(tmp_path / "wal"), page_size=PAGE
    )
    database.create_relation(
        "t", [Column("k", INTEGER, nullable=False), Column("v", TEXT)]
    )
    database.create_index("t_k", "t", ["k"])
    return database, injector


def _recovered(tmp_path):
    log = WriteAheadLog.load(str(tmp_path / "wal"))
    if log.has_torn_tail:
        log.repair()
    # Replay addresses rows by (page, slot): the fresh instance must
    # use the crashed instance's page size.
    return recover(log, database_factory=lambda: Database(page_size=PAGE))


class TestAppendCrashWindows:
    """The three crash windows of one WAL append.  DDL appends count:
    create_relation is arrival 1, create_index arrival 2, so the first
    insert's append is arrival 3."""

    def test_torn_append_is_never_acked_and_repairs_away(self, tmp_path):
        database, _ = _faulty_db(
            tmp_path, FaultPlan.crash_at("wal.append", 4, FaultMode.TORN)
        )
        database.insert("t", (1, "acked"))
        with pytest.raises(SimulatedCrash):
            database.insert("t", (2, "torn"))
        database.wal.close()
        log = WriteAheadLog.load(str(tmp_path / "wal"))
        assert log.has_torn_tail  # the partial line is visible...
        assert log.repair() > 0  # ...and repairable
        recovered = _recovered(tmp_path)
        assert contents_of(recovered, ["t"]) == {"t": [(1, "acked")]}

    def test_crash_after_append_replays_the_statement(self, tmp_path):
        database, _ = _faulty_db(
            tmp_path, FaultPlan.crash_at("wal.append", 4, FaultMode.CRASH_AFTER)
        )
        database.insert("t", (1, "acked"))
        with pytest.raises(SimulatedCrash):
            database.insert("t", (2, "durable-not-acked"))
        database.wal.close()
        recovered = _recovered(tmp_path)
        assert contents_of(recovered, ["t"]) == {
            "t": [(1, "acked"), (2, "durable-not-acked")]
        }

    def test_crash_before_really_is_before(self, tmp_path):
        database, _ = _faulty_db(
            tmp_path, FaultPlan.crash_at("wal.append", 3, FaultMode.CRASH_BEFORE)
        )
        with pytest.raises(SimulatedCrash):
            database.insert("t", (1, "never"))
        database.wal.close()
        recovered = _recovered(tmp_path)
        assert contents_of(recovered, ["t"]) == {"t": []}


# Drive the real torture drill across every append/checkpoint boundary
# its workload reaches.  ``run_point`` performs the full invariant
# battery (recovered == acked (+ in-flight), heap/index agreement,
# snapshot recovery agreement, PMV restart correctness).


def _points(site):
    return [spec for spec in enumerate_points(seed=0) if spec.site == site]


class TestHarnessSweeps:
    def test_workload_reaches_every_wal_boundary(self):
        sites = {spec.site for spec in enumerate_points(seed=0)}
        assert "wal.append" in sites and "wal.checkpoint" in sites

    @pytest.mark.parametrize(
        "mode", [FaultMode.CRASH_BEFORE, FaultMode.TORN, FaultMode.CRASH_AFTER]
    )
    def test_append_boundary_sweep(self, mode):
        specs = [s for s in _points("wal.append") if s.mode is mode][:6]
        assert specs, f"no append points in mode {mode}"
        for spec in specs:
            result = run_point(0, spec)
            assert result.ok, (result.handle, result.violations)

    def test_append_has_no_error_mode(self):
        # The log is force-at-append: a failed append IS a crash.
        with pytest.raises(ValueError):
            FaultSpec("wal.append", 1, FaultMode.ERROR)

    def test_checkpoint_boundary_sweep(self):
        for spec in _points("wal.checkpoint")[:8]:
            result = run_point(0, spec)
            assert result.ok, (result.handle, result.violations)

    def test_commit_crash_sweep(self):
        for spec in _points("txn.commit")[:4]:
            result = run_point(0, spec)
            assert result.ok, (result.handle, result.violations)

    def test_torn_page_write_sweep(self):
        specs = [s for s in _points("disk.write_page") if s.mode is FaultMode.TORN]
        for spec in specs[:4]:
            result = run_point(0, spec)
            assert result.ok, (result.handle, result.violations)
