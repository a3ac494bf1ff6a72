"""Unit tests for the rule-based planner."""

import pytest

from repro.engine import (
    Column,
    Database,
    EqualityDisjunction,
    INTEGER,
    Interval,
    IntervalDisjunction,
    JoinEquality,
    QueryTemplate,
    SelectionSlot,
    SlotForm,
    TEXT,
)
from repro.errors import PlanningError
from tests.conftest import brute_force_eqt, eqt_query, plan_rows


class TestEqtPlans:
    def test_driver_uses_first_indexed_slot(self, eqt_db, eqt):
        query = eqt_query(eqt, [1, 3], [2, 4])
        plan = eqt_db.plan(query)
        text = plan.explain()
        assert "IndexEqualityScan(r via r_f" in text
        assert "IndexNestedLoopJoin(inner=s via s_d" in text

    def test_results_match_brute_force(self, eqt_db, eqt):
        query = eqt_query(eqt, [1, 3], [2, 4])
        rows = eqt_db.run(query)
        got = sorted(tuple(row.values) for row in rows)
        assert got == brute_force_eqt(eqt_db, {1, 3}, {2, 4})

    def test_projects_expanded_select_list(self, eqt_db, eqt):
        query = eqt_query(eqt, [1], [2])
        rows = eqt_db.run(query)
        assert rows, "expected some results"
        assert rows[0].schema.has_column("r.f")
        assert rows[0].schema.has_column("s.g")

    def test_blocking_flag(self, eqt_db, eqt):
        query = eqt_query(eqt, [1], [2])
        assert "Materialize" in eqt_db.plan(query, blocking=True).explain()
        assert "Materialize" not in eqt_db.plan(query, blocking=False).explain()

    def test_empty_result(self, eqt_db, eqt):
        query = eqt_query(eqt, [999], [2])
        assert eqt_db.run(query) == []


class TestFallbacks:
    def test_seq_scan_when_no_index(self):
        db = Database()
        db.create_relation("t", [Column("a", INTEGER), Column("b", INTEGER)])
        for i in range(20):
            db.insert("t", (i, i % 4))
        template = QueryTemplate(
            "single",
            ("t",),
            ("t.a",),
            (),
            (SelectionSlot("t", "t.b", SlotForm.EQUALITY),),
        )
        query = template.bind([EqualityDisjunction("t.b", [1, 2])])
        plan = db.plan(query)
        assert "SeqScan(t)" in plan.explain()
        assert sorted(row["t.a"] for row in plan_rows(plan)) == sorted(
            i for i in range(20) if i % 4 in (1, 2)
        )

    def test_missing_join_index_falls_back_to_hash_join(self):
        db = Database()
        db.create_relation("r", [Column("c", INTEGER), Column("f", INTEGER)])
        db.create_relation("s", [Column("d", INTEGER), Column("g", INTEGER)])
        db.create_index("r_f", "r", ["f"])
        for i in range(30):
            db.insert("r", (i % 5, i % 3))
            db.insert("s", (i % 5, i % 4))
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
        query = template.bind(
            [EqualityDisjunction("r.f", [1]), EqualityDisjunction("s.g", [1])]
        )
        plan = db.plan(query)
        assert "NestedLoopJoin(inner=s hashed on d" in plan.explain()
        r_rows = list(db.catalog.relation("r").scan_rows())
        s_rows = list(db.catalog.relation("s").scan_rows())
        expect = sorted(
            (r["c"], s["d"], r["f"], s["g"])
            for r in r_rows
            for s in s_rows
            if r["c"] == s["d"] and r["f"] == 1 and s["g"] == 1
        )
        assert sorted(tuple(row.values) for row in plan_rows(plan)) == expect

    def test_interval_slot_needs_ordered_index_for_driving(self):
        db = Database()
        db.create_relation("t", [Column("a", INTEGER), Column("b", INTEGER)])
        db.create_index("t_b_hash", "t", ["b"])  # hash: no ranges
        for i in range(20):
            db.insert("t", (i, i))
        template = QueryTemplate(
            "iv",
            ("t",),
            ("t.a",),
            (),
            (SelectionSlot("t", "t.b", SlotForm.INTERVAL),),
        )
        query = template.bind([IntervalDisjunction("t.b", [Interval(3, 8)])])
        plan = db.plan(query)
        # Falls back to a filtered SeqScan rather than misusing the hash index.
        assert "SeqScan" in plan.explain()
        assert sorted(row["t.a"] for row in plan_rows(plan)) == [4, 5, 6, 7]

    def test_interval_slot_uses_ordered_index(self):
        db = Database()
        db.create_relation("t", [Column("a", INTEGER), Column("b", INTEGER)])
        db.create_index("t_b", "t", ["b"], ordered=True)
        for i in range(20):
            db.insert("t", (i, i))
        template = QueryTemplate(
            "iv",
            ("t",),
            ("t.a",),
            (),
            (SelectionSlot("t", "t.b", SlotForm.INTERVAL),),
        )
        query = template.bind([IntervalDisjunction("t.b", [Interval(3, 8)])])
        plan = db.plan(query)
        assert "IndexRangeScan" in plan.explain()
        assert sorted(row["t.a"] for row in plan_rows(plan)) == [4, 5, 6, 7]


class TestThreeWayJoin:
    @pytest.fixture
    def db3(self):
        db = Database()
        db.create_relation("a", [Column("x", INTEGER), Column("fa", INTEGER)])
        db.create_relation("b", [Column("x", INTEGER), Column("y", INTEGER)])
        db.create_relation("c", [Column("y", INTEGER), Column("fc", INTEGER)])
        db.create_index("a_fa", "a", ["fa"])
        db.create_index("a_x", "a", ["x"])
        db.create_index("b_x", "b", ["x"])
        db.create_index("b_y", "b", ["y"])
        db.create_index("c_y", "c", ["y"])
        for i in range(12):
            db.insert("a", (i % 4, i % 3))
            db.insert("b", (i % 4, i % 6))
            db.insert("c", (i % 6, i % 2))
        return db

    def test_chain_join_matches_brute_force(self, db3):
        template = QueryTemplate(
            "abc",
            ("a", "b", "c"),
            ("a.fa", "c.fc"),
            (JoinEquality("a", "x", "b", "x"), JoinEquality("b", "y", "c", "y")),
            (
                SelectionSlot("a", "a.fa", SlotForm.EQUALITY),
                SelectionSlot("c", "c.fc", SlotForm.EQUALITY),
            ),
        )
        query = template.bind(
            [EqualityDisjunction("a.fa", [1]), EqualityDisjunction("c.fc", [0])]
        )
        rows = db3.run(query)
        a_rows = list(db3.catalog.relation("a").scan_rows())
        b_rows = list(db3.catalog.relation("b").scan_rows())
        c_rows = list(db3.catalog.relation("c").scan_rows())
        expect = sorted(
            (ra["fa"], rc["fc"], rc["fc"])
            for ra in a_rows
            for rb in b_rows
            for rc in c_rows
            if ra["x"] == rb["x"] and rb["y"] == rc["y"] and ra["fa"] == 1 and rc["fc"] == 0
        )
        got = sorted((row["a.fa"], row["c.fc"], row["c.fc"]) for row in rows)
        assert got == expect

    def test_disconnected_join_graph_raises(self, db3):
        template = QueryTemplate(
            "broken",
            ("a", "b", "c"),
            ("a.fa", "c.fc"),
            # Only one edge for three relations passes the >= n-1 check
            # if we add a redundant self-ish edge; instead check the
            # planner error by removing reachability.
            (JoinEquality("a", "x", "b", "x"), JoinEquality("a", "x", "b", "y")),
            (
                SelectionSlot("a", "a.fa", SlotForm.EQUALITY),
                SelectionSlot("c", "c.fc", SlotForm.EQUALITY),
            ),
        )
        query = template.bind(
            [EqualityDisjunction("a.fa", [1]), EqualityDisjunction("c.fc", [0])]
        )
        with pytest.raises(PlanningError):
            db3.plan(query)
