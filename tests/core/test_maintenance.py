"""Unit/integration tests for deferred PMV maintenance (Section 3.4)."""

import pytest

from repro.core import (
    Discretization,
    MaintenanceStrategy,
    MaterializedView,
    PartialMaterializedView,
    PMVExecutor,
    PMVMaintainer,
)
from repro.core.maintenance import compute_delta_join, template_result_schema
from repro.errors import MaintenanceError
from tests.conftest import cached_count, eqt_query


@pytest.fixture
def warmed(eqt_db, eqt, eqt_pmv, eqt_executor):
    """PMV warmed so cell (1, 2) holds F=2 tuples."""
    eqt_executor.execute(eqt_query(eqt, [1], [2]))
    assert cached_count(eqt_pmv, (1, 2)) == 2
    return eqt_db, eqt, eqt_pmv, eqt_executor


@pytest.fixture(params=[MaintenanceStrategy.DELTA_JOIN, MaintenanceStrategy.AUX_INDEX])
def maintainer(request, warmed):
    db, eqt, pmv, executor = warmed
    m = PMVMaintainer(db, pmv, strategy=request.param).attach()
    yield db, eqt, pmv, executor, m
    m.detach()


class TestInsert:
    def test_insert_is_free(self, maintainer):
        db, eqt, pmv, executor, _ = maintainer
        before = pmv.stored_tuple_count
        db.insert("r", (900, 1, 1, "new"))
        assert pmv.stored_tuple_count == before
        assert pmv.metrics.maintenance_inserts_ignored == 1

    def test_results_correct_after_insert(self, maintainer):
        db, eqt, pmv, executor, _ = maintainer
        db.insert("r", (900, 2, 1, "brand-new"))  # c=2 matches s rows with d=2
        oracle = MaterializedView(db, eqt)
        query = eqt_query(eqt, [1], [2])
        result = executor.execute(query)
        assert sorted(tuple(r.values) for r in result.all_rows()) == sorted(
            tuple(r.values) for r in oracle.answer(query)
        )


class TestDelete:
    def test_stale_tuples_removed(self, maintainer):
        db, eqt, pmv, executor, _ = maintainer
        cached = pmv.lookup((1, 2))
        victim_a = cached[0]["r.a"]
        db.delete_where("r", lambda row: row["a"] == victim_a)
        remaining = pmv.lookup((1, 2)) or []
        assert all(row["r.a"] != victim_a for row in remaining)

    def test_no_stale_partial_results_after_delete(self, maintainer):
        db, eqt, pmv, executor, _ = maintainer
        db.delete_where("r", lambda row: row["f"] == 1 and row["id"] < 40)
        oracle = MaterializedView(db, eqt)
        query = eqt_query(eqt, [1], [2])
        result = executor.execute(query)  # DS.assert_empty inside guards staleness
        assert sorted(tuple(r.values) for r in result.all_rows()) == sorted(
            tuple(r.values) for r in oracle.answer(query)
        )

    def test_delete_from_inner_relation(self, maintainer):
        db, eqt, pmv, executor, _ = maintainer
        # Removing every s row with g=2 starves cell (r.f=1, s.g=2)
        # entirely, whichever join partners fed its cached tuples.
        db.delete_where("s", lambda row: row["g"] == 2)
        assert cached_count(pmv, (1, 2)) == 0
        oracle = MaterializedView(db, eqt)
        query = eqt_query(eqt, [1], [2])
        result = executor.execute(query)
        assert sorted(tuple(r.values) for r in result.all_rows()) == sorted(
            tuple(r.values) for r in oracle.answer(query)
        )

    def test_unrelated_relation_ignored(self, warmed):
        db, eqt, pmv, executor = warmed
        from repro.engine import Column, INTEGER

        db.create_relation("unrelated", [Column("x", INTEGER)])
        m = PMVMaintainer(db, pmv).attach()
        row_id = db.insert("unrelated", (1,))
        db.delete("unrelated", row_id)
        assert pmv.metrics.maintenance_deletes == 0
        m.detach()

    def test_delete_counted(self, maintainer):
        db, eqt, pmv, executor, _ = maintainer
        db.delete_where("r", lambda row: row["id"] == 0)
        assert pmv.metrics.maintenance_deletes == 1


class TestUpdate:
    def test_irrelevant_update_skipped(self, maintainer):
        db, eqt, pmv, executor, _ = maintainer
        # r.id is in no Ls'/Cjoin attribute of Eqt.
        row_id, _ = next(iter(db.catalog.relation("r").find(lambda r: r["f"] == 1)))
        db.update("r", row_id, id=5000)
        assert pmv.metrics.maintenance_updates_skipped == 1
        assert cached_count(pmv, (1, 2)) == 2

    def test_relevant_update_removes_old_tuple(self, maintainer):
        db, eqt, pmv, executor, _ = maintainer
        cached = pmv.lookup((1, 2))
        victim_a = cached[0]["r.a"]
        matches = list(db.catalog.relation("r").find(lambda r: r["a"] == victim_a))
        row_id, _ = matches[0]
        db.update("r", row_id, a="renamed")
        remaining = pmv.lookup((1, 2)) or []
        assert all(row["r.a"] != victim_a for row in remaining)

    def test_consistency_after_update(self, maintainer):
        db, eqt, pmv, executor, _ = maintainer
        row_id, _ = next(iter(db.catalog.relation("r").find(lambda r: r["f"] == 1)))
        db.update("r", row_id, f=5)  # moves the row to another cell
        oracle = MaterializedView(db, eqt)
        for fs, gs in [([1], [2]), ([5], [2])]:
            query = eqt_query(eqt, fs, gs)
            result = executor.execute(query)
            assert sorted(tuple(r.values) for r in result.all_rows()) == sorted(
                tuple(r.values) for r in oracle.answer(query)
            )


class TestDeltaJoin:
    def test_delta_join_matches_full_join_restriction(self, warmed):
        db, eqt, pmv, executor = warmed
        schema = template_result_schema(eqt, db)
        _, r_row = next(iter(db.catalog.relation("r").find(lambda r: r["id"] == 1)))
        results = compute_delta_join(db, eqt, "r", r_row, schema)
        oracle = MaterializedView(db, eqt)
        expected = [row for row in oracle.rows() if row["r.a"] == r_row["a"]]
        assert sorted(tuple(r.values) for r in results) == sorted(
            tuple(r.values) for r in expected
        )

    def test_delta_join_rows_equal_plan_rows(self, warmed):
        db, eqt, pmv, executor = warmed
        _, r_row = next(iter(db.catalog.relation("r").find(lambda r: r["id"] == 1)))
        results = compute_delta_join(db, eqt, "r", r_row)
        plan_rows = db.run(eqt_query(eqt, [r_row["f"]], [0, 1, 2, 3, 4]))
        plan_set = {tuple(r.values) for r in plan_rows}
        for row in results:
            assert tuple(row.values) in plan_set

    def test_missing_index_raises(self, eqt_db, eqt):
        from repro.engine import Column, Database, INTEGER

        db = Database()
        db.create_relation("r", [Column("id", INTEGER), Column("c", INTEGER), Column("f", INTEGER), Column("a", INTEGER)])
        db.create_relation("s", [Column("d", INTEGER), Column("g", INTEGER), Column("e", INTEGER)])
        schema = db.catalog.relation("r").schema
        from repro.engine.row import Row

        with pytest.raises(MaintenanceError):
            compute_delta_join(db, eqt, "r", Row((1, 1, 1, 1), schema))


class TestAuxIndexStrategy:
    def test_aux_strategy_requires_coverage(self, eqt_db, eqt):
        pmv = PartialMaterializedView(
            eqt, Discretization(eqt), 2, 8, aux_index_columns=("r.a",)
        )
        with pytest.raises(MaintenanceError):
            PMVMaintainer(eqt_db, pmv, strategy=MaintenanceStrategy.AUX_INDEX)

    def test_aux_removal_is_superset_safe(self, eqt_db, eqt):
        pmv = PartialMaterializedView(
            eqt,
            Discretization(eqt),
            tuples_per_entry=2,
            max_entries=16,
            aux_index_columns=("r.a", "s.e"),
        )
        executor = PMVExecutor(eqt_db, pmv)
        maintainer = PMVMaintainer(
            eqt_db, pmv, strategy=MaintenanceStrategy.AUX_INDEX
        ).attach()
        executor.execute(eqt_query(eqt, [1], [2]))
        eqt_db.delete_where("r", lambda row: row["f"] == 1)
        # Every remaining cached tuple must still be derivable.
        oracle = MaterializedView(eqt_db, eqt)
        valid = {tuple(r.values) for r in oracle.rows()}
        for _, rows in pmv.entries():
            for row in rows:
                assert tuple(row.values) in valid
        maintainer.detach()


class TestLocking:
    def test_maintenance_takes_x_lock(self, warmed):
        db, eqt, pmv, executor = warmed
        PMVMaintainer(db, pmv).attach()
        reader = db.begin(read_only=True)
        reader.lock_shared(pmv.name, wait=False)
        from repro.errors import LockError

        with pytest.raises(LockError):
            db.delete_where("r", lambda row: row["id"] == 1)
        reader.commit()
