"""Unit tests for table/column statistics and selectivity-aware planning."""

import pytest

from repro.engine import Column, Database, EqualityDisjunction, INTEGER, Interval, TEXT
from repro.engine.stats import StatisticsCollector
from repro.errors import EngineError
from tests.conftest import plan_rows


@pytest.fixture
def analyzed(db: Database):
    db.create_relation(
        "t",
        [Column("k", INTEGER, nullable=False), Column("skew", INTEGER), Column("v", TEXT)],
    )
    # skew: value 0 appears 50x, values 1..50 once each, 10 NULLs.
    rows = [(i, 0, "hot") for i in range(50)]
    rows += [(100 + i, i, "cold") for i in range(1, 51)]
    rows += [(200 + i, None, "null") for i in range(10)]
    db.insert_many("t", rows)
    collector = StatisticsCollector(mcv_count=5, histogram_buckets=10)
    table = collector.analyze(db.catalog.relation("t"))
    return db, collector, table


class TestCollection:
    def test_row_and_null_counts(self, analyzed):
        _, _, table = analyzed
        assert table.row_count == 110
        assert table.column("skew").null_count == 10
        assert table.column("skew").null_fraction == pytest.approx(10 / 110)

    def test_distinct_count(self, analyzed):
        _, _, table = analyzed
        assert table.column("skew").distinct_count == 51
        assert table.column("v").distinct_count == 3

    def test_min_max(self, analyzed):
        _, _, table = analyzed
        assert table.column("skew").min_value == 0
        assert table.column("skew").max_value == 50

    def test_mcv_captures_heavy_hitter(self, analyzed):
        _, _, table = analyzed
        assert table.column("skew").most_common[0] == 50

    def test_qualified_column_lookup(self, analyzed):
        _, _, table = analyzed
        assert table.column("t.skew").column == "skew"
        with pytest.raises(EngineError):
            table.column("t.missing")

    def test_unanalyzed_relation_raises(self, analyzed):
        _, collector, _ = analyzed
        with pytest.raises(EngineError):
            collector.table("ghost")


class TestSelectivity:
    def test_mcv_equality_selectivity(self, analyzed):
        _, _, table = analyzed
        stats = table.column("skew")
        assert stats.equality_selectivity(0) == pytest.approx(50 / 110)

    def test_rare_value_selectivity_uses_uniformity(self, analyzed):
        _, _, table = analyzed
        stats = table.column("skew")
        rare = stats.equality_selectivity(40)
        assert 0 < rare < stats.equality_selectivity(0)

    def test_unknown_value_nonnegative(self, analyzed):
        _, _, table = analyzed
        assert table.column("skew").equality_selectivity(9999) >= 0.0

    def test_disjunction_capped_at_one(self, analyzed):
        _, _, table = analyzed
        stats = table.column("v")
        assert stats.disjunction_selectivity(["hot", "cold", "null"]) <= 1.0

    def test_interval_selectivity_scales_with_width(self, analyzed):
        _, _, table = analyzed
        stats = table.column("skew")
        narrow = stats.interval_selectivity(Interval(10, 15))
        wide = stats.interval_selectivity(Interval(1, 50, True, True))
        assert 0 <= narrow <= wide <= 1.0

    def test_interval_outside_range_is_zero(self, analyzed):
        _, _, table = analyzed
        assert table.column("skew").interval_selectivity(Interval(500, 600)) == 0.0


class TestPlannerIntegration:
    def test_planner_prefers_selective_slot(self, db: Database):
        from repro.engine import JoinEquality, QueryTemplate, SelectionSlot, SlotForm

        db.create_relation("r", [Column("c", INTEGER), Column("f", INTEGER)])
        db.create_relation("s", [Column("d", INTEGER), Column("g", INTEGER)])
        db.create_index("r_f", "r", ["f"])
        db.create_index("r_c", "r", ["c"])
        db.create_index("s_d", "s", ["d"])
        db.create_index("s_g", "s", ["g"])
        # r.f is non-selective (all rows share f=1); s.g is selective.
        for i in range(200):
            db.insert("r", (i % 20, 1))
        for j in range(200):
            db.insert("s", (j % 20, j))
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
            [EqualityDisjunction("r.f", [1]), EqualityDisjunction("s.g", [7])]
        )
        # Without statistics: template order wins (drives on r.f).
        assert "IndexEqualityScan(r via r_f" in db.plan(query).explain()
        # With statistics: the selective s.g slot drives.
        db.analyze()
        plan = db.plan(query)
        assert "IndexEqualityScan(s via s_g" in plan.explain()
        # And the answer is unchanged.
        rows = plan_rows(plan)
        assert all(row["s.g"] == 7 and row["r.f"] == 1 for row in rows)
        assert len(rows) == 10  # r.c==s.d==7 -> 10 r rows x 1 s row

    def test_analyze_single_relation(self, db: Database):
        db.create_relation("only", [Column("x", INTEGER)])
        db.insert("only", (1,))
        table = db.analyze("only")
        assert table is not None and table.row_count == 1

    def test_bad_collector_parameters(self):
        with pytest.raises(EngineError):
            StatisticsCollector(mcv_count=-1)
        with pytest.raises(EngineError):
            StatisticsCollector(histogram_buckets=1)
