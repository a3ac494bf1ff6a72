"""Unit tests for the executor hot path: the O1 decomposition memo and
its metrics, bulk duplicate suppression, part grouping, and preview."""

import pytest

from repro.core.decompose import (
    DecompositionCache,
    PartGroup,
    decompose,
    group_parts,
)
from repro.core.discretize import BasicIntervals, Discretization
from repro.core.duplicates import DuplicateSuppressor
from repro.core.executor import PMVExecutor
from repro.core.view import PartialMaterializedView
from repro.engine.datatypes import INTEGER, TEXT
from repro.engine.predicate import (
    EqualityDisjunction,
    Interval,
    IntervalDisjunction,
)
from repro.engine.row import Row
from repro.engine.schema import Column, Schema
from repro.engine.template import (
    JoinEquality,
    QueryTemplate,
    SelectionSlot,
    SlotForm,
)
from repro.errors import ConditionError
from tests.conftest import eqt_query


@pytest.fixture
def interval_template():
    return QueryTemplate(
        "qt",
        ("r", "s"),
        ("r.a", "s.e"),
        (JoinEquality("r", "c", "s", "d"),),
        (
            SelectionSlot("r", "r.f", SlotForm.EQUALITY),
            SelectionSlot("s", "s.g", SlotForm.INTERVAL),
        ),
    )


@pytest.fixture
def interval_disc(interval_template):
    return Discretization(interval_template, {"s.g": BasicIntervals([10, 20, 30])})


def _interval_query(template, f_values, interval):
    return template.bind(
        [
            EqualityDisjunction("r.f", list(f_values)),
            IntervalDisjunction("s.g", [interval]),
        ]
    )


class TestDecompositionCache:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConditionError):
            DecompositionCache(0)

    def test_memoized_equals_fresh(self, interval_template, interval_disc):
        cache = DecompositionCache(8)
        query = _interval_query(interval_template, [1, 2], Interval(5, 25))
        assert cache.decompose(query, interval_disc) == decompose(
            query, interval_disc
        )

    def test_value_equal_queries_share_one_entry(
        self, interval_template, interval_disc
    ):
        cache = DecompositionCache(8)
        first = _interval_query(interval_template, [1], Interval(5, 15))
        second = _interval_query(interval_template, [1], Interval(5, 15))
        cache.decompose(first, interval_disc)
        cache.decompose(second, interval_disc)
        assert cache.info()["hits"] == 1
        assert cache.info()["misses"] == 1
        assert len(cache) == 1

    def test_distinct_bounds_are_distinct_entries(
        self, interval_template, interval_disc
    ):
        cache = DecompositionCache(8)
        cache.decompose(
            _interval_query(interval_template, [1], Interval(5, 15)), interval_disc
        )
        cache.decompose(
            _interval_query(interval_template, [1], Interval(5, 16)), interval_disc
        )
        assert cache.info()["misses"] == 2

    def test_lru_eviction(self, interval_template, interval_disc):
        cache = DecompositionCache(2)
        queries = [
            _interval_query(interval_template, [f], Interval(5, 15)) for f in (1, 2, 3)
        ]
        for query in queries:
            cache.decompose(query, interval_disc)
        assert len(cache) == 2
        # The oldest entry (f=1) was evicted; re-probing it misses.
        cache.decompose(queries[0], interval_disc)
        assert cache.info()["misses"] == 4

    def test_caller_may_mutate_returned_list(
        self, interval_template, interval_disc
    ):
        cache = DecompositionCache(8)
        query = _interval_query(interval_template, [1], Interval(5, 15))
        cache.decompose(query, interval_disc).clear()
        assert cache.decompose(query, interval_disc) == decompose(
            query, interval_disc
        )

    def test_grouped_matches_group_parts(self, interval_template, interval_disc):
        cache = DecompositionCache(8)
        query = _interval_query(interval_template, [1, 2], Interval(5, 25))
        parts, groups = cache.decompose_grouped(query, interval_disc)
        assert list(parts) == decompose(query, interval_disc)
        assert groups == group_parts(list(parts))

    def test_clear_drops_entries_keeps_counters(
        self, interval_template, interval_disc
    ):
        cache = DecompositionCache(8)
        query = _interval_query(interval_template, [1], Interval(5, 15))
        cache.decompose(query, interval_disc)
        cache.clear()
        assert len(cache) == 0
        assert cache.info()["misses"] == 1


class TestGroupParts:
    def test_split_interval_parts_share_their_bcp_group(
        self, interval_template, interval_disc
    ):
        # Both query intervals lie inside basic interval [10, 20), so
        # their two condition parts share one containing bcp.
        query = interval_template.bind(
            [
                EqualityDisjunction("r.f", [1]),
                IntervalDisjunction("s.g", [Interval(11, 13), Interval(15, 17)]),
            ]
        )
        parts = decompose(query, interval_disc)
        groups = group_parts(parts)
        assert len(groups) < len(parts)
        assert sum(len(group.parts) for group in groups) == len(parts)

    def test_has_basic_hoists_per_row_checks(
        self, interval_template, interval_disc
    ):
        aligned = _interval_query(
            interval_template, [1], Interval(10, 20, low_inclusive=True)
        )
        groups = group_parts(decompose(aligned, interval_disc))
        assert all(group.has_basic for group in groups)
        shrunk = _interval_query(interval_template, [1], Interval(12, 18))
        groups = group_parts(decompose(shrunk, interval_disc))
        assert not any(group.has_basic for group in groups)

    def test_group_is_frozen(self):
        group = PartGroup(key=("k",), parts=(), has_basic=True)
        with pytest.raises(AttributeError):
            group.has_basic = False


class TestBulkDuplicateSuppression:
    @pytest.fixture
    def schema(self):
        return Schema([Column("a", INTEGER), Column("b", TEXT)], relation_name="t")

    def _row(self, schema, a, b):
        return Row((a, b), schema)

    def test_consume_batch_on_empty_ds_returns_copy(self, schema):
        ds = DuplicateSuppressor()
        values = [(i, "x") for i in range(3)]
        fresh = ds.consume_batch(values)
        assert fresh == values
        assert fresh is not values

    def test_add_batch_consume_batch_multiset_semantics(self, schema):
        # A counting multiset over bare value tuples, no Row objects.
        ds = DuplicateSuppressor()
        ds.add_batch([(1, "x"), (1, "x"), (2, "y")])
        assert len(ds) == 3
        stream = [(1, "x"), (3, "z"), (1, "x"), (1, "x"), (2, "y")]
        fresh = ds.consume_batch(stream)
        assert fresh == [(3, "z"), (1, "x")]
        assert len(ds) == 0
        ds.assert_empty()

    def test_add_batch_accepts_iterator(self, schema):
        ds = DuplicateSuppressor()
        ds.add_batch(iter([(1, "x"), (2, "y")]))
        assert len(ds) == 2
        assert ds.consume_batch([(1, "x"), (2, "y")]) == []

    def test_schema_insensitive_like_row_equality(self, schema):
        other = Schema([Column("c", INTEGER), Column("d", TEXT)], relation_name="u")
        ds = DuplicateSuppressor()
        ds.add(Row((1, "x"), schema))
        assert ds.consume(Row((1, "x"), other))
        assert len(ds) == 0


class TestKnobEquivalence:
    """The executor as constructed by default: the O1 memo's per-query
    metrics, and the rejection of a non-positive memo capacity."""

    def _queries(self, eqt):
        return [
            eqt_query(eqt, [1, 3], [2, 4]),
            eqt_query(eqt, [1, 3], [2, 4]),  # repeat: exercises the memo
            eqt_query(eqt, [0], [0]),
            eqt_query(eqt, [5], [1, 2]),
            eqt_query(eqt, [1, 3], [2, 4]),
        ]

    def _view(self, eqt):
        return PartialMaterializedView(
            eqt, Discretization(eqt), tuples_per_entry=2, max_entries=16
        )

    def test_distinct_mode_agrees(self, eqt_db, eqt):
        # Reference: the plan's row operators, which the executor never
        # runs, collapsed to a set.
        view = self._view(eqt)
        executor = PMVExecutor(eqt_db, view)
        for query in self._queries(eqt):
            result = executor.execute(query, distinct=True)
            got = [tuple(r.values) for r in result.all_rows()]
            assert len(got) == len(set(got))
            assert set(got) == {tuple(r.values) for r in eqt_db.run(query)}
        view.check_invariants()

    def test_o1_metrics_count_hits_and_misses(self, eqt_db, eqt):
        view = self._view(eqt)
        executor = PMVExecutor(eqt_db, view)
        for query in self._queries(eqt):
            executor.execute(query)
        assert view.metrics.o1_cache_misses == 3
        assert view.metrics.o1_cache_hits == 2
        assert view.metrics.o1_cache_hit_ratio == pytest.approx(0.4)

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_non_positive_memo_capacity_is_rejected(self, eqt_db, eqt, capacity):
        # There is no "memo off" mode: the DecompositionCache's own
        # validation surfaces through the constructor.
        with pytest.raises(ConditionError):
            PMVExecutor(eqt_db, self._view(eqt), o1_cache_size=capacity)


class TestPreviewGrouping:
    def test_preview_probes_each_bcp_once(self, eqt_db, eqt, eqt_pmv):
        """Non-resident keys are referenced once per query even when
        several condition parts map to the same containing bcp."""
        executor = PMVExecutor(eqt_db, eqt_pmv)
        query = eqt_query(eqt, [1, 3], [2, 4])
        executor.preview(query)
        # 4 condition parts -> 4 distinct bcps -> 4 references.
        assert eqt_pmv.policy.references == 4

    def test_preview_matches_execute_partials(self, eqt_db, eqt, eqt_pmv):
        executor = PMVExecutor(eqt_db, eqt_pmv)
        query = eqt_query(eqt, [1, 3], [2, 4])
        executor.execute(query)  # warm the PMV
        expected = executor.execute(query).partial_rows
        preview = executor.preview(query).partial_rows
        assert sorted(tuple(r.values) for r in preview) == sorted(
            tuple(r.values) for r in expected
        )
