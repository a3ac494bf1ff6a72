"""Batch draining and CDC backpressure tests."""

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
from repro.qos.admission import AdmissionController
from repro.qos.governor import DegradationGovernor, GovernorConfig


def _plain_db() -> Database:
    db = Database()
    db.create_relation(
        "t", [Column("id", INTEGER, nullable=False), Column("v", TEXT)]
    )
    return db


def _cdc_fixture(drain_batch: int):
    db = Database(wal=WriteAheadLog())
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
    template = QueryTemplate(
        name="bq",
        relations=("r", "s"),
        select_list=("r.a", "s.e"),
        joins=(JoinEquality("r", "c", "s", "d"),),
        slots=(
            SelectionSlot("r", "r.f", SlotForm.EQUALITY),
            SelectionSlot("s", "s.g", SlotForm.EQUALITY),
        ),
    )
    manager = PMVManager(db)
    manager.create_view(template, Discretization(template), tuples_per_entry=4)
    maintainer = manager.enable_async_maintenance(drain_batch=drain_batch)
    return db, manager, template, maintainer


def _workload(db: Database) -> None:
    for i in range(30):
        db.insert("r", (i, i % 4, i % 3, f"a{i}"))
    for j in range(12):
        db.insert("s", (j % 4, j % 2, f"e{j}"))
    rows = list(db.catalog.relation("r").scan())
    db.delete("r", rows[0][0])
    db.update("r", rows[1][0], a="renamed")


def _answers(manager, template):
    out = {}
    for f_val in range(3):
        for g_val in range(2):
            query = template.bind(
                [
                    EqualityDisjunction("r.f", [f_val]),
                    EqualityDisjunction("s.g", [g_val]),
                ]
            )
            out[(f_val, g_val)] = sorted(
                (tuple(r.values) for r in manager.execute(query).all_rows()),
                key=repr,
            )
    return out


class TestBatchDrain:
    def test_batched_drain_is_lockstep_equivalent(self):
        db1, mgr1, tpl1, m1 = _cdc_fixture(drain_batch=1)
        db8, mgr8, tpl8, m8 = _cdc_fixture(drain_batch=8)
        _workload(db1)
        _workload(db8)
        m1.drain_to_convergence()
        m8.drain_to_convergence()
        assert _answers(mgr1, tpl1) == _answers(mgr8, tpl8)
        s1, s8 = m1.stats(), m8.stats()
        assert s1["records_drained"] == s8["records_drained"]
        assert s1["views"] == s8["views"]
        # The whole point: far fewer lock acquisitions/batches.
        assert s8["cdc_drain_batches"] < s1["cdc_drain_batches"]
        assert s8["drain_batch"] == 8

    def test_partial_batch_limit_respected(self):
        db, _mgr, _tpl, maintainer = _cdc_fixture(drain_batch=4)
        for i in range(10):
            db.insert("r", (i, 0, 0, f"a{i}"))
        drained = maintainer.drain(max_records=6)
        assert drained == 6  # 4 + 2, capped by max_records
        assert maintainer.drain_batches == 2

    def test_drain_batch_must_be_positive(self):
        from repro.errors import MaintenanceError

        with pytest.raises(MaintenanceError):
            _cdc_fixture(drain_batch=0)


class TestBackpressure:
    def test_cdc_backlog_drives_degraded(self):
        db, manager, _tpl, _maintainer = _cdc_fixture(drain_batch=1)
        config = GovernorConfig(degrade_backlog=8, shed_backlog=1000)
        governor = DegradationGovernor(manager, AdmissionController(), config=config)
        assert governor.tick() == "NORMAL"
        for i in range(12):  # backlog past degrade_backlog, nothing drained
            db.insert("r", (i, 0, 0, f"a{i}"))
        assert governor._backlog_depth() == 12
        assert governor.tick() == "DEGRADED"
        assert governor.stats()["cdc_backlog"] == 12

    def test_backlog_zero_without_outbox(self):
        db = _plain_db()
        manager = PMVManager(db)
        governor = DegradationGovernor(manager, AdmissionController())
        assert governor._backlog_depth() == 0
        assert governor.tick() == "NORMAL"
