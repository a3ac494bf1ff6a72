"""Coverage for small behaviours not exercised elsewhere."""

import itertools

import pytest

from repro.bench.reporting import Series, format_table, scale_note
from repro.core import Discretization, PartialMaterializedView, PMVExecutor
from repro.engine import Column, Database, EqualityDisjunction, INTEGER
from repro.engine.snapshot import restore_snapshot, take_snapshot
from repro.errors import ConditionError
from tests.conftest import cached_count, eqt_query


class TestReportingFormats:
    def test_fmt_zero_and_extremes(self):
        text = format_table(["a"], [[0.0], [12345.6], [0.0000001], [3.14]])
        assert "0" in text
        assert "1.235e+04" in text
        assert "1.000e-07" in text
        assert "3.14" in text

    def test_scale_note(self):
        assert scale_note("half size") == "[scale] half size"

    def test_series_as_rows(self):
        line = Series("x", [1, 2], [0.5, 0.6])
        assert line.as_rows() == [(1, 0.5), (2, 0.6)]


class TestBindEdgeCases:
    def test_duplicate_condition_columns_rejected(self, eqt):
        with pytest.raises(ConditionError):
            eqt.bind(
                [
                    EqualityDisjunction("r.f", [1]),
                    EqualityDisjunction("r.f", [2]),
                ]
            )


class TestViewIteration:
    def test_entries_returns_copies(self, eqt, eqt_db):
        view = PartialMaterializedView(eqt, Discretization(eqt), 2, 8)
        view.reference((1, 2))
        from repro.core.maintenance import template_result_schema

        schema = template_result_schema(eqt, eqt_db)
        view.refill((1, 2), [("a", "e", 1, 2)], schema)
        for _, rows in view.entries():
            rows.clear()
        assert cached_count(view, (1, 2)) == 1


class TestSnapshotUnderPressure:
    def test_snapshot_correct_with_tiny_buffer_pool(self):
        """Dirty pages evicted and re-fetched through a 2-page pool must
        still snapshot exactly."""
        db = Database(buffer_pool_pages=2, page_size=512)
        db.create_relation("t", [Column("k", INTEGER), Column("pad", INTEGER)])
        ids = [db.insert("t", (i, i * 7)) for i in range(300)]
        for victim in ids[::17]:
            db.delete("t", victim)
        restored = restore_snapshot(take_snapshot(db), buffer_pool_pages=2)
        original = {rid: r.values for rid, r in db.catalog.relation("t").scan()}
        replayed = {rid: r.values for rid, r in restored.catalog.relation("t").scan()}
        assert replayed == original


class TestExecutorMetricsTiming:
    def test_partial_latency_is_part_of_overhead(self, eqt_db, eqt, eqt_pmv):
        # One tick per reading: the ordering of the readings is what is
        # asserted, not how long this machine took between them.
        ticks = itertools.count()
        executor = PMVExecutor(eqt_db, eqt_pmv, clock=lambda: float(next(ticks)))
        executor.execute(eqt_query(eqt, [1], [2]))
        metrics = executor.execute(eqt_query(eqt, [1], [2])).metrics
        assert 0 < metrics.partial_latency_seconds <= metrics.overhead_seconds
        assert metrics.execution_seconds > 0
