"""Disk-full (ENOSPC) degradation: typed refusals, reads keep serving,
auto-recovery, and the serving gate's resource report."""

import errno

import pytest

from repro.core import Discretization, PMVManager
from repro.engine import (
    Column,
    Database,
    EqualityDisjunction,
    INTEGER,
    JoinEquality,
    QueryTemplate,
    SelectionSlot,
    SlotForm,
    TEXT,
    WriteAheadLog,
)
from repro.errors import DiskFullError
from repro.faults import FaultInjector, FaultMode, FaultPlan, FaultSpec
from repro.qos.gate import ServingGate


def _template() -> QueryTemplate:
    return QueryTemplate(
        name="dq",
        relations=("r", "s"),
        select_list=("r.a", "s.e"),
        joins=(JoinEquality("r", "c", "s", "d"),),
        slots=(
            SelectionSlot("r", "r.f", SlotForm.EQUALITY),
            SelectionSlot("s", "s.g", SlotForm.EQUALITY),
        ),
    )


def _build(injector: FaultInjector, tmp_path):
    wal = WriteAheadLog(path=str(tmp_path / "wal"), segment_bytes=4096)
    wal.fault_check = injector.check
    db = Database(wal=wal)
    db.disk.fault_check = injector.check
    db.create_relation(
        "r",
        [
            Column("id", INTEGER, nullable=False),
            Column("c", INTEGER, nullable=False),
            Column("f", INTEGER, nullable=False),
            Column("a", TEXT),
        ],
    )
    db.create_relation(
        "s",
        [
            Column("d", INTEGER, nullable=False),
            Column("g", INTEGER, nullable=False),
            Column("e", TEXT),
        ],
    )
    for i in range(8):
        db.insert("r", (i, i % 4, i % 2, f"a{i}"))
    for j in range(4):
        db.insert("s", (j % 4, j % 2, f"e{j}"))
    return db


def _window(site: str, start: int, length: int) -> FaultPlan:
    return FaultPlan(
        [FaultSpec(site, occ, FaultMode.ERROR) for occ in range(start, start + length)]
    )


class TestRefusal:
    @pytest.mark.parametrize("site", ["wal.enospc", "disk.full"])
    def test_dml_refused_typed_with_no_durable_effect(self, site, tmp_path):
        # Setup DML counts arrivals too: 12 seed writes precede the test.
        injector = FaultInjector(_window(site, 13, 3))
        db = _build(injector, tmp_path)
        lsn = db.wal.last_lsn
        rows = sorted(tuple(r.values) for r in db.catalog.relation("r").scan_rows())
        with pytest.raises(DiskFullError) as exc_info:
            db.insert("r", (100, 0, 0, "nope"))
        assert exc_info.value.site == site
        assert exc_info.value.errno == errno.ENOSPC
        assert isinstance(exc_info.value, OSError)
        assert db.wal.last_lsn == lsn
        assert rows == sorted(
            tuple(r.values) for r in db.catalog.relation("r").scan_rows()
        )
        assert db.disk_full is True
        assert db.disk_full_refusals == 1

    def test_all_dml_kinds_refused(self, tmp_path):
        injector = FaultInjector(_window("wal.enospc", 13, 6))
        db = _build(injector, tmp_path)
        row_id = next(iter(db.catalog.relation("r").scan()))[0]
        with pytest.raises(DiskFullError):
            db.insert("r", (100, 0, 0, "nope"))
        with pytest.raises(DiskFullError):
            db.delete("r", row_id)
        with pytest.raises(DiskFullError):
            db.update("r", row_id, a="nope")
        assert db.disk_full_refusals == 3

    def test_reads_keep_serving_while_disk_full(self, tmp_path):
        injector = FaultInjector(_window("disk.full", 13, 8))
        db = _build(injector, tmp_path)
        template = _template()
        manager = PMVManager(db)
        manager.create_view(template, Discretization(template), tuples_per_entry=4)
        with pytest.raises(DiskFullError):
            db.insert("r", (100, 0, 0, "nope"))
        assert db.disk_full
        query = template.bind(
            [
                EqualityDisjunction("r.f", [0]),
                EqualityDisjunction("s.g", [0]),
            ]
        )
        got = sorted(
            (tuple(r.values) for r in manager.execute(query).all_rows()), key=repr
        )
        want = sorted((tuple(r.values) for r in db.run(query)), key=repr)
        assert got == want

    def test_auto_recovery_on_next_successful_probe(self, tmp_path):
        injector = FaultInjector(_window("wal.enospc", 13, 2))
        db = _build(injector, tmp_path)
        with pytest.raises(DiskFullError):
            db.insert("r", (100, 0, 0, "a"))
        with pytest.raises(DiskFullError):
            db.insert("r", (100, 0, 0, "a"))
        assert db.disk_full
        db.insert("r", (100, 0, 0, "recovered"))  # window passed: accepted
        assert not db.disk_full
        assert db.disk_full_recoveries == 1
        assert db.disk_full_refusals == 2

    def test_gate_stats_surface_resource_state(self, tmp_path):
        injector = FaultInjector(_window("disk.full", 13, 1))
        db = _build(injector, tmp_path)
        template = _template()
        manager = PMVManager(db)
        manager.create_view(template, Discretization(template), tuples_per_entry=4)
        gate = ServingGate(manager)
        with pytest.raises(DiskFullError):
            db.insert("r", (100, 0, 0, "nope"))
        report = gate.stats()
        assert report["disk_full"]["active"] is True
        assert report["disk_full"]["refusals"] == 1
        assert report["wal_resources"]["segment_bytes"] == 4096
        assert report["wal_repairs"] == 0
        db.insert("r", (100, 0, 0, "back"))
        report = gate.stats()
        assert report["disk_full"]["active"] is False
        assert report["disk_full"]["recoveries"] == 1
