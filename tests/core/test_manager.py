"""Unit tests for the multi-PMV manager."""

import pytest

from repro.core.manager import PMVManager
from repro.errors import PMVError
from repro.workload import make_t1, make_t2
from tests.conftest import cached_count, eqt_query


@pytest.fixture
def manager(eqt_db, eqt):
    m = PMVManager(eqt_db)
    m.create_view(eqt, tuples_per_entry=2, max_entries=16)
    return m


class TestLifecycle:
    def test_create_registers_template(self, tiny_tpcr):
        manager = PMVManager(tiny_tpcr)
        manager.create_view(make_t1())
        assert tiny_tpcr.catalog.template("T1") is not None
        assert manager.template_names() == ["T1"]

    def test_duplicate_rejected(self, manager, eqt):
        with pytest.raises(PMVError):
            manager.create_view(eqt)

    def test_unknown_relations_rejected(self, eqt_db):
        from repro.engine import QueryTemplate, SelectionSlot, SlotForm

        ghost = QueryTemplate(
            "ghost", ("nope",), ("nope.x",), (),
            (SelectionSlot("nope", "nope.x", SlotForm.EQUALITY),),
        )
        with pytest.raises(PMVError):
            PMVManager(eqt_db).create_view(ghost)

    def test_drop_detaches_maintenance(self, manager, eqt_db, eqt):
        view = manager.view("Eqt")
        manager.execute(eqt_query(eqt, [1], [2]))
        manager.drop_view("Eqt")
        deletes_before = view.metrics.maintenance_deletes
        eqt_db.delete_where("r", lambda row: row["id"] == 0)
        assert view.metrics.maintenance_deletes == deletes_before
        with pytest.raises(PMVError):
            manager.view("Eqt")

    def test_drop_unknown_rejected(self, manager):
        with pytest.raises(PMVError):
            manager.drop_view("ghost")


class TestRouting:
    def test_routes_by_template(self, tiny_tpcr):
        from repro.engine import EqualityDisjunction

        manager = PMVManager(tiny_tpcr)
        t1, t2 = make_t1(), make_t2()
        manager.create_view(t1, max_entries=32)
        manager.create_view(t2, max_entries=32)
        dates = sorted(
            {o["orderdate"] for o in tiny_tpcr.catalog.relation("orders").scan_rows()}
        )
        q1 = t1.bind(
            [
                EqualityDisjunction("orders.orderdate", dates[:2]),
                EqualityDisjunction("lineitem.suppkey", [1, 2]),
            ]
        )
        q2 = t2.bind(
            [
                EqualityDisjunction("orders.orderdate", dates[:2]),
                EqualityDisjunction("lineitem.suppkey", [1, 2]),
                EqualityDisjunction("customer.nationkey", [0, 1]),
            ]
        )
        manager.execute(q1)
        manager.execute(q2)
        assert manager.view("T1").metrics.queries == 1
        assert manager.view("T2").metrics.queries == 1

    def test_unregistered_template_rejected(self, eqt_db, eqt, manager):
        from repro.engine import Column, INTEGER, QueryTemplate, SelectionSlot, SlotForm
        from repro.engine import EqualityDisjunction

        eqt_db.create_relation("u", [Column("x", INTEGER)])
        other = QueryTemplate(
            "other", ("u",), ("u.x",), (), (SelectionSlot("u", "u.x", SlotForm.EQUALITY),)
        )
        with pytest.raises(PMVError):
            manager.execute(other.bind([EqualityDisjunction("u.x", [1])]))

    def test_results_match_direct_executor(self, manager, eqt_db, eqt):
        query = eqt_query(eqt, [1, 3], [2, 4])
        via_manager = manager.execute(query)
        from tests.conftest import brute_force_eqt

        assert sorted(tuple(r.values) for r in via_manager.all_rows()) == (
            brute_force_eqt(eqt_db, {1, 3}, {2, 4})
        )


class TestAccounting:
    def test_total_bytes_and_summary(self, manager, eqt):
        manager.execute(eqt_query(eqt, [1], [2]))
        assert manager.total_bytes > 0
        [row] = manager.summary()
        assert row["template"] == "Eqt"
        assert row["queries"] == 1
        assert row["tuples"] > 0
        assert len(manager) == 1

    def test_check_invariants(self, manager, eqt):
        for f in range(4):
            manager.execute(eqt_query(eqt, [f], [0]))
        manager.check_invariants()

    def test_maintenance_wired_through_manager(self, manager, eqt_db, eqt):
        manager.execute(eqt_query(eqt, [1], [2]))
        view = manager.view("Eqt")
        assert cached_count(view, (1, 2)) == 2
        eqt_db.delete_where("s", lambda row: row["g"] == 2)
        assert cached_count(view, (1, 2)) == 0
