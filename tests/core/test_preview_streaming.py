"""Tests for preview() (the paper's Benefit 2: early termination) and
the on_partial streaming callback."""

import pytest

from tests.conftest import brute_force_eqt, eqt_query


class TestPreview:
    def test_preview_returns_cached_partials_only(self, eqt_db, eqt, eqt_executor):
        query = eqt_query(eqt, [1], [2])
        eqt_executor.execute(query)  # warm the cell
        preview = eqt_executor.preview(query)
        assert preview.had_partial_results
        assert preview.remaining_rows == []
        full = eqt_executor.execute(query)
        partial_set = {tuple(r.values) for r in preview.partial_rows}
        full_set = {tuple(r.values) for r in full.all_rows()}
        assert partial_set <= full_set

    def test_preview_never_claims_a_complete_answer(self, eqt_db, eqt, eqt_executor):
        """A preview skips O3, so it holds a subset of the answer and
        must say so, like any other partial answer."""
        query = eqt_query(eqt, [1, 2, 3], [2, 4])
        full = eqt_executor.execute(query)  # warm
        preview = eqt_executor.preview(query)
        assert preview.partial_rows
        assert len(preview.all_rows()) < len(full.all_rows())
        assert not preview.complete
        assert preview.degraded_reason == "preview"

    def test_preview_cold_is_empty(self, eqt_db, eqt, eqt_executor):
        preview = eqt_executor.preview(eqt_query(eqt, [5], [4]))
        assert preview.partial_rows == []
        assert not preview.had_partial_results

    def test_preview_spares_all_execution_io(self, eqt_db, eqt, eqt_executor):
        """Benefit 2: a terminated query costs the RDBMS nothing beyond
        the in-memory probe."""
        query = eqt_query(eqt, [1, 3], [2, 4])
        eqt_executor.execute(query)
        before = eqt_db.io_snapshot()
        probes_before = sum(
            i.probes for rel in eqt_db.catalog.relations()
            for i in eqt_db.catalog.indexes_on(rel.name)
        )
        eqt_executor.preview(query)
        after = eqt_db.io_since(before)
        probes_after = sum(
            i.probes for rel in eqt_db.catalog.relations()
            for i in eqt_db.catalog.indexes_on(rel.name)
        )
        assert after.total == 0
        assert probes_after == probes_before

    def test_preview_does_not_fill_pmv(self, eqt_db, eqt, eqt_pmv, eqt_executor):
        query = eqt_query(eqt, [2], [3])
        eqt_executor.preview(query)
        assert eqt_pmv.stored_tuple_count == 0

    def test_preview_counts_toward_metrics(self, eqt_db, eqt, eqt_pmv, eqt_executor):
        eqt_executor.execute(eqt_query(eqt, [1], [2]))
        eqt_executor.preview(eqt_query(eqt, [1], [2]))
        assert eqt_pmv.metrics.queries == 2
        assert eqt_pmv.metrics.query_hits == 1

    def test_preview_releases_lock(self, eqt_db, eqt, eqt_pmv, eqt_executor):
        eqt_executor.preview(eqt_query(eqt, [1], [2]))
        shared, exclusive = eqt_db.lock_manager.holders(eqt_pmv.name)
        assert shared == set() and exclusive is None

    def test_preview_then_refine_workflow(self, eqt_db, eqt, eqt_executor):
        """The exploration loop the paper motivates: preview, refine,
        then run the refined query fully."""
        broad = eqt_query(eqt, [1, 2, 3], [2, 4])
        eqt_executor.execute(broad)
        glimpse = eqt_executor.preview(broad)
        assert glimpse.had_partial_results
        refined = eqt_query(eqt, [1], [2])
        final = eqt_executor.execute(refined)
        assert sorted(tuple(r.values) for r in final.all_rows()) == brute_force_eqt(
            eqt_db, {1}, {2}
        )


class TestOnPartialStreaming:
    def test_callback_fires_before_execution(self, eqt_db, eqt, eqt_executor):
        query = eqt_query(eqt, [1], [2])
        eqt_executor.execute(query)
        events = []
        orig_plan = eqt_db.plan

        def recording_plan(q, blocking=True):
            events.append("execution-planned")
            return orig_plan(q, blocking=blocking)

        eqt_db.plan = recording_plan
        try:
            result = eqt_executor.execute(
                query, on_partial=lambda rows: events.append(("partial", len(rows)))
            )
        finally:
            eqt_db.plan = orig_plan
        assert events[0] == ("partial", len(result.partial_rows))
        assert events[1] == "execution-planned"

    def test_callback_receives_copy(self, eqt_db, eqt, eqt_executor):
        query = eqt_query(eqt, [1], [2])
        eqt_executor.execute(query)
        captured = []
        result = eqt_executor.execute(query, on_partial=captured.extend)
        captured.clear()  # mutating the delivered list must not corrupt the result
        assert result.partial_rows

    def test_callback_on_cold_query_gets_empty_list(self, eqt_db, eqt, eqt_executor):
        seen = []
        eqt_executor.execute(eqt_query(eqt, [4], [1]), on_partial=seen.append)
        assert seen == [[]]
