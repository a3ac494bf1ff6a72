"""Unit tests for the Volcano operators' column-batch path."""

import pytest

from repro.engine import Column, Database, INTEGER, Interval, TEXT
from repro.engine.row import Row
from repro.engine.operators import (
    Filter,
    IndexEqualityScan,
    IndexNestedLoopJoin,
    IndexRangeScan,
    Materialize,
    Project,
    SeqScan,
)
from repro.errors import PlanningError


def rows(operator):
    """Everything ``operator`` yields, as rows of its output schema."""
    return [
        Row(values, operator.schema)
        for batch in operator.execute_columns()
        for values in batch.tuples()
    ]


@pytest.fixture
def env():
    db = Database()
    db.create_relation(
        "r", [Column("id", INTEGER), Column("k", INTEGER), Column("t", TEXT)]
    )
    db.create_relation("s", [Column("k", INTEGER), Column("u", TEXT)])
    db.create_index("r_k_hash", "r", ["k"])
    db.create_index("r_k_ord", "r", ["k"], ordered=True)
    db.create_index("s_k", "s", ["k"])
    for i in range(30):
        db.insert("r", (i, i % 10, f"t{i}"))
    for j in range(10):
        db.insert("s", (j, f"u{j}"))
    return db


class TestSeqScan:
    def test_full_scan(self, env):
        scan = SeqScan(env.catalog.relation("r"))
        assert len(rows(scan)) == 30

    def test_filter_pushdown(self, env):
        scan = SeqScan(env.catalog.relation("r"), tests=[("k", lambda k: k == 0)])
        assert all(row["k"] == 0 for row in rows(scan))
        assert len(rows(scan)) == 3


class TestIndexScans:
    def test_equality_scan_multiple_keys(self, env):
        relation = env.catalog.relation("r")
        scan = IndexEqualityScan(relation, env.catalog.index("r_k_hash"), [2, 5])
        ks = sorted(row["k"] for row in rows(scan))
        assert ks == [2, 2, 2, 5, 5, 5]

    def test_equality_scan_residual(self, env):
        relation = env.catalog.relation("r")
        scan = IndexEqualityScan(
            relation,
            env.catalog.index("r_k_hash"),
            [2],
            tests=[("id", lambda i: i < 10)],
        )
        assert [row["id"] for row in rows(scan)] == [2]

    def test_range_scan(self, env):
        relation = env.catalog.relation("r")
        scan = IndexRangeScan(
            relation, env.catalog.index("r_k_ord"), [Interval(2, 5)]
        )
        assert sorted(set(row["k"] for row in rows(scan))) == [3, 4]

    def test_range_scan_multiple_intervals(self, env):
        relation = env.catalog.relation("r")
        scan = IndexRangeScan(
            relation,
            env.catalog.index("r_k_ord"),
            [Interval(0, 2, low_inclusive=True), Interval(7, 9, high_inclusive=True)],
        )
        assert sorted(set(row["k"] for row in rows(scan))) == [0, 1, 8, 9]

    def test_wrong_relation_rejected(self, env):
        with pytest.raises(PlanningError):
            IndexEqualityScan(env.catalog.relation("s"), env.catalog.index("r_k_hash"), [1])

    def test_hash_index_rejected_for_range(self, env):
        with pytest.raises(PlanningError):
            IndexRangeScan(env.catalog.relation("r"), env.catalog.index("r_k_hash"), [])


class TestJoin:
    def test_index_nested_loop_join(self, env):
        outer = SeqScan(env.catalog.relation("r"))
        join = IndexNestedLoopJoin(
            outer, env.catalog.relation("s"), env.catalog.index("s_k"), "r.k"
        )
        out = rows(join)
        assert len(out) == 30  # every r row matches exactly one s row
        sample = out[0]
        assert sample["r.k"] == sample["s.k"]

    def test_inner_predicate(self, env):
        outer = SeqScan(env.catalog.relation("r"))
        join = IndexNestedLoopJoin(
            outer,
            env.catalog.relation("s"),
            env.catalog.index("s_k"),
            "r.k",
            inner_tests=[("k", lambda k: k < 3)],
        )
        assert len(rows(join)) == 9

    def test_schema_concat_resolves_both_sides(self, env):
        outer = SeqScan(env.catalog.relation("r"))
        join = IndexNestedLoopJoin(
            outer, env.catalog.relation("s"), env.catalog.index("s_k"), "r.k"
        )
        assert join.schema.has_column("r.t")
        assert join.schema.has_column("s.u")


class TestProjectFilterMaterialize:
    def test_project(self, env):
        plan = Project(SeqScan(env.catalog.relation("r")), ["r.t", "r.id"])
        row = rows(plan)[0]
        assert len(row) == 2
        assert row["r.t"].startswith("t")

    def test_filter(self, env):
        join = IndexNestedLoopJoin(
            SeqScan(env.catalog.relation("r")),
            env.catalog.relation("s"),
            env.catalog.index("s_k"),
            "r.k",
        )
        # A redundant edge: r.id = s.k holds for ids 0..9 only.
        plan = Filter(join, ("r.id", "s.k"), label="r.id=s.k")
        out = rows(plan)
        assert sorted(row["r.id"] for row in out) == list(range(10))
        assert all(row["r.id"] == row["s.k"] for row in out)
        assert plan.explain().startswith("Filter(r.id=s.k)")

    def test_materialize_blocks(self, env):
        relation = env.catalog.relation("r")
        consumed = []

        class Recording(SeqScan):
            def execute_columns(self):
                for batch in super().execute_columns():
                    consumed.extend(batch.tuples())
                    yield batch

        plan = Materialize(Recording(relation))
        iterator = plan.execute_columns()
        first = next(iterator)
        # With Materialize, the entire child is drained before the
        # first batch is emitted — the paper's blocking behaviour.
        assert len(consumed) == 30
        assert first.tuples()[0] == consumed[0]

    def test_explain_renders_tree(self, env):
        plan = Materialize(Project(SeqScan(env.catalog.relation("r")), ["r.id"]))
        text = plan.explain()
        assert "Materialize" in text
        assert "Project" in text
        assert "SeqScan(r)" in text


class TestNestedLoopJoinFallback:
    def test_hash_join_matches_index_join(self, env):
        from repro.engine.operators import NestedLoopJoin

        outer = SeqScan(env.catalog.relation("r"))
        via_index = IndexNestedLoopJoin(
            outer, env.catalog.relation("s"), env.catalog.index("s_k"), "r.k"
        )
        outer2 = SeqScan(env.catalog.relation("r"))
        via_hash = NestedLoopJoin(
            outer2, env.catalog.relation("s"), "k", "r.k"
        )
        assert sorted(r.values for r in rows(via_hash)) == sorted(
            r.values for r in rows(via_index)
        )

    def test_inner_predicate_applied(self, env):
        from repro.engine.operators import NestedLoopJoin

        join = NestedLoopJoin(
            SeqScan(env.catalog.relation("r")),
            env.catalog.relation("s"),
            "k",
            "r.k",
            inner_tests=[("k", lambda k: k < 2)],
        )
        out = rows(join)
        assert out and all(row["s.k"] < 2 for row in out)

    def test_empty_inner_yields_nothing(self):
        from repro.engine.operators import NestedLoopJoin

        db = Database()
        db.create_relation("a", [Column("x", INTEGER)])
        db.create_relation("b", [Column("x", INTEGER)])
        db.insert("a", (1,))
        join = NestedLoopJoin(
            SeqScan(db.catalog.relation("a")), db.catalog.relation("b"), "x", "a.x"
        )
        assert rows(join) == []

    def test_explain_mentions_hash(self, env):
        from repro.engine.operators import NestedLoopJoin

        join = NestedLoopJoin(
            SeqScan(env.catalog.relation("r")), env.catalog.relation("s"), "k", "r.k"
        )
        assert "hashed on k" in join.explain()
