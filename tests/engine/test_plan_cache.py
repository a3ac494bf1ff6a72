"""Regression tests for the template-level plan cache.

The cache compiles one plan skeleton per (template, blocking, driver
slot) and re-binds it per query; DDL (creating/dropping relations or
indexes) bumps the catalog version and must invalidate every cached
skeleton, or a stale plan would reference dropped structures or miss
better access paths.
"""

import pytest

from repro.engine import (
    Column,
    Database,
    EqualityDisjunction,
    INTEGER,
    QueryTemplate,
    SelectionSlot,
    SlotForm,
)
from repro.engine.database import PlanCache
from tests.conftest import eqt_query, plan_rows


@pytest.fixture
def single_db():
    """A one-relation database with a registered single-slot template."""
    db = Database()
    db.create_relation("t", [Column("a", INTEGER), Column("b", INTEGER)])
    for i in range(40):
        db.insert("t", (i, i % 5))
    template = QueryTemplate(
        "single",
        ("t",),
        ("t.a",),
        (),
        (SelectionSlot("t", "t.b", SlotForm.EQUALITY),),
    )
    db.register_template(template)
    return db, template


def _bind(template, values):
    return template.bind([EqualityDisjunction("t.b", list(values))])


def _fresh(db, query):
    """The uncached reference: a from-scratch compile + bind."""
    plan = PlanCache(db.catalog).plan(query, True, statistics=db.statistics)
    return [tuple(r.values) for r in plan_rows(plan)]


def _cached(db, query):
    """The answer through the database's plan cache."""
    return [tuple(r.values) for r in plan_rows(db.plan(query))]


class TestCaching:
    def test_second_plan_is_a_cache_hit(self, single_db):
        db, template = single_db
        db.plan(_bind(template, [1]))
        before = db.plan_cache.info()
        db.plan(_bind(template, [2]))
        after = db.plan_cache.info()
        assert after["hits"] == before["hits"] + 1
        assert after["compilations"] == before["compilations"]

    def test_cached_results_identical_to_fresh(self, single_db):
        db, template = single_db
        for values in ([1], [2, 4], [0, 3]):
            query = _bind(template, values)
            assert _cached(db, query) == _fresh(db, query)

    def test_rebinding_does_not_leak_previous_values(self, single_db):
        db, template = single_db
        first = sorted(r["t.a"] for r in plan_rows(db.plan(_bind(template, [1]))))
        second = sorted(r["t.a"] for r in plan_rows(db.plan(_bind(template, [2]))))
        assert first == sorted(i for i in range(40) if i % 5 == 1)
        assert second == sorted(i for i in range(40) if i % 5 == 2)


class TestInvalidation:
    def test_create_index_bumps_version_and_recompiles(self, single_db):
        db, template = single_db
        version = db.catalog.version
        plan = db.plan(_bind(template, [1]))
        assert "SeqScan(t)" in plan.explain()
        db.create_index("t_b", "t", ["b"])
        assert db.catalog.version > version
        plan = db.plan(_bind(template, [1]))
        assert "IndexEqualityScan(t via t_b" in plan.explain()

    def test_drop_index_invalidates_cached_plan(self, single_db):
        db, template = single_db
        db.create_index("t_b", "t", ["b"])
        plan = db.plan(_bind(template, [1]))
        assert "IndexEqualityScan" in plan.explain()
        db.drop_index("t_b")
        plan = db.plan(_bind(template, [1]))
        assert "SeqScan(t)" in plan.explain()
        assert sorted(r["t.a"] for r in plan_rows(plan)) == sorted(
            i for i in range(40) if i % 5 == 1
        )

    def test_results_survive_index_churn(self, single_db):
        db, template = single_db
        expected = _fresh(db, _bind(template, [2]))
        db.create_index("t_b", "t", ["b"])
        with_index = _cached(db, _bind(template, [2]))
        db.drop_index("t_b")
        without_index = _cached(db, _bind(template, [2]))
        assert sorted(with_index) == sorted(expected)
        assert sorted(without_index) == sorted(expected)

    def test_clear_forces_recompilation(self, single_db):
        db, template = single_db
        db.plan(_bind(template, [1]))
        compilations = db.plan_cache.info()["compilations"]
        db.plan_cache.clear()
        db.plan(_bind(template, [1]))
        assert db.plan_cache.info()["compilations"] == compilations + 1


class TestDriverSlots:
    def test_driver_choice_stays_per_query(self, eqt_db, eqt):
        """Statistics-directed driver choice must survive caching: two
        queries of one template may compile different skeletons."""
        db = eqt_db
        db.analyze()
        narrow_f = eqt_query(eqt, [1], [0, 1, 2, 3, 4])
        narrow_g = eqt_query(eqt, list(range(6)), [2])
        explain_f = db.plan(narrow_f).explain()
        explain_g = db.plan(narrow_g).explain()
        assert "IndexEqualityScan(r via r_f" in explain_f
        assert "IndexEqualityScan(s via s_g" in explain_g

    def test_blocking_variants_cached_separately(self, single_db):
        db, template = single_db
        blocking = db.plan(_bind(template, [1]), blocking=True)
        streaming = db.plan(_bind(template, [1]), blocking=False)
        assert "Materialize" in blocking.explain()
        assert "Materialize" not in streaming.explain()
