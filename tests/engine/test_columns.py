"""Unit tests for ColumnBatch and chunk coalescing."""

import pytest

from repro.engine.columns import ColumnBatch, coalesce_chunks
from repro.engine.datatypes import INTEGER, TEXT
from repro.engine.row import Row
from repro.engine.schema import Column, Schema


@pytest.fixture
def schema():
    return Schema(
        [Column("id", INTEGER, nullable=False), Column("name", TEXT)],
        relation_name="t",
    )


TUPLES = [(1, "a"), (2, "b"), (3, "c"), (4, "d")]


class TestLayouts:
    def test_requires_exactly_one_layout(self, schema):
        with pytest.raises(ValueError):
            ColumnBatch(schema)
        with pytest.raises(ValueError):
            ColumnBatch(schema, tuples=[], columns=[[], []])

    def test_row_major_to_column_major(self, schema):
        batch = ColumnBatch.from_tuples(list(TUPLES), schema)
        assert batch.columns() == [[1, 2, 3, 4], ["a", "b", "c", "d"]]
        assert batch.column(1) == ["a", "b", "c", "d"]

    def test_column_major_to_row_major(self, schema):
        batch = ColumnBatch.from_columns([[1, 2], ["a", "b"]], schema)
        assert batch.tuples() == [(1, "a"), (2, "b")]

    def test_transpose_is_cached(self, schema):
        batch = ColumnBatch.from_tuples(list(TUPLES), schema)
        assert batch.columns() is batch.columns()
        batch2 = ColumnBatch.from_columns([[1], ["a"]], schema)
        assert batch2.tuples() is batch2.tuples()

    def test_empty_batches(self, schema):
        empty_rows = ColumnBatch.from_tuples([], schema)
        assert empty_rows.columns() == [[], []]
        assert len(empty_rows) == 0
        assert not empty_rows
        empty_cols = ColumnBatch.from_columns([[], []], schema)
        assert empty_cols.tuples() == []
        assert len(empty_cols) == 0

    def test_rows_materialization(self, schema):
        batch = ColumnBatch.from_tuples(list(TUPLES), schema)
        rows = batch.rows()
        assert all(isinstance(row, Row) for row in rows)
        assert [row.values for row in rows] == TUPLES
        assert [row.values for row in batch] == TUPLES


class TestFilter:
    def test_filter_row_major(self, schema):
        batch = ColumnBatch.from_tuples(list(TUPLES), schema)
        kept = batch.filter([(0, lambda v: v % 2 == 0)])
        assert kept.tuples() == [(2, "b"), (4, "d")]

    def test_filter_column_major_uses_selection_vector(self, schema):
        batch = ColumnBatch.from_columns([[1, 2, 3, 4], ["a", "b", "c", "d"]], schema)
        kept = batch.filter([(0, lambda v: v > 1), (1, lambda v: v != "c")])
        assert kept.tuples() == [(2, "b"), (4, "d")]

    def test_filter_no_tests_returns_self(self, schema):
        batch = ColumnBatch.from_tuples(list(TUPLES), schema)
        assert batch.filter([]) is batch

    def test_filter_all_dropped(self, schema):
        batch = ColumnBatch.from_columns([[1, 2], ["a", "b"]], schema)
        kept = batch.filter([(0, lambda v: False), (1, lambda v: True)])
        assert len(kept) == 0

    def test_filter_equal_columns(self):
        schema = Schema([Column("x", INTEGER), Column("y", INTEGER)])
        batch = ColumnBatch.from_columns([[1, 2, 3], [1, 5, 3]], schema)
        assert batch.filter_equal_columns(0, 1).tuples() == [(1, 1), (3, 3)]
        row_major = ColumnBatch.from_tuples([(1, 1), (2, 5)], schema)
        assert row_major.filter_equal_columns(0, 1).tuples() == [(1, 1)]


class TestTakeProject:
    def test_take_preserves_order(self, schema):
        batch = ColumnBatch.from_tuples(list(TUPLES), schema)
        assert batch.take([3, 0]).tuples() == [(4, "d"), (1, "a")]

    def test_take_column_major(self, schema):
        batch = ColumnBatch.from_columns([[1, 2, 3], ["a", "b", "c"]], schema)
        assert batch.take([2, 1]).tuples() == [(3, "c"), (2, "b")]

    def test_project_zero_copy_in_column_major(self, schema):
        batch = ColumnBatch.from_columns([[1, 2], ["a", "b"]], schema)
        narrow = Schema([Column("name", TEXT)], relation_name="t")
        projected = batch.project([1], narrow)
        assert projected.tuples() == [("a",), ("b",)]
        # Zero-copy: the projected batch shares the picked column list.
        assert projected.columns()[0] is batch.columns()[1]


class TestCoalesceChunks:
    def test_small_chunks_merge(self):
        chunks = [[(1,)], [(2,)], [(3,)], [(4,)], [(5,)]]
        merged = list(coalesce_chunks(chunks, batch_rows=2))
        assert merged == [[(1,), (2,)], [(3,), (4,)], [(5,)]]

    def test_large_chunk_passes_through(self):
        big = [(i,) for i in range(10)]
        merged = list(coalesce_chunks([big], batch_rows=4))
        assert merged == [big]
        assert merged[0] is big

    def test_empty_chunks_skipped(self):
        merged = list(coalesce_chunks([[], [(1,)], [], [(2,)]], batch_rows=10))
        assert merged == [[(1,), (2,)]]

    def test_flattened_order_preserved(self):
        chunks = [[(1,), (2,)], [(3,)], [(4,), (5,), (6,)], [(7,)]]
        merged = list(coalesce_chunks(chunks, batch_rows=3))
        flat = [t for chunk in merged for t in chunk]
        assert flat == [(i,) for i in range(1, 8)]

    def test_no_chunks(self):
        assert list(coalesce_chunks([], batch_rows=8)) == []
