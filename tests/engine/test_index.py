"""Unit tests for hash and ordered secondary indexes."""

import pytest

from repro.engine.bufferpool import BufferPool
from repro.engine.datatypes import INTEGER, MINUS_INFINITY, PLUS_INFINITY, TEXT
from repro.engine.disk import DiskManager
from repro.engine.heap import HeapRelation
from repro.engine.index import HashIndex, OrderedIndex, build_index
from repro.engine.schema import Column, Schema
from repro.errors import IndexError_


@pytest.fixture
def heap():
    pool = BufferPool(DiskManager(), capacity=8)
    schema = Schema(
        [Column("k", INTEGER, nullable=False), Column("v", TEXT)], relation_name="t"
    )
    relation = HeapRelation("t", schema, pool)
    return relation


def populate(heap, n=20):
    ids = {}
    for i in range(n):
        row_id = heap.insert((i % 5, f"v{i}"))
        ids.setdefault(i % 5, []).append(row_id)
    return ids


class TestHashIndex:
    def test_probe_finds_all_duplicates(self, heap):
        ids = populate(heap)
        index = build_index("t_k", heap, ["k"])
        assert sorted(index.probe(3)) == sorted(ids[3])

    def test_probe_missing_key_empty(self, heap):
        populate(heap)
        index = build_index("t_k", heap, ["k"])
        assert index.probe(99) == []

    def test_delete_removes_single_posting(self, heap):
        ids = populate(heap)
        index = build_index("t_k", heap, ["k"])
        victim = ids[2][0]
        index.delete(heap.fetch(victim), victim)
        assert victim not in index.probe(2)
        assert len(index.probe(2)) == len(ids[2]) - 1

    def test_delete_unknown_raises(self, heap):
        populate(heap)
        index = build_index("t_k", heap, ["k"])
        from repro.engine.row import Row, RowId

        ghost = Row((77, "x"), heap.schema)
        with pytest.raises(IndexError_):
            index.delete(ghost, RowId(0, 0))

    @pytest.mark.parametrize("ordered", [False, True])
    def test_delete_of_row_id_not_under_key_raises(self, heap, ordered):
        """A known key with a row id it does not hold, or an unknown key:
        typed error, nothing removed (both index kinds)."""
        from repro.engine.row import Row, RowId

        ids = populate(heap)
        index = build_index("t_k", heap, ["k"], ordered=ordered)
        with pytest.raises(IndexError_):
            index.delete(heap.fetch(ids[2][0]), ids[3][0])
        with pytest.raises(IndexError_):
            index.delete(heap.fetch(ids[2][0]), RowId(999, 0))
        with pytest.raises(IndexError_):
            index.delete(Row((77, "x"), heap.schema), ids[2][0])
        assert index.entry_count == 20
        assert sorted(index.probe(2)) == sorted(ids[2])

    def test_entry_count(self, heap):
        populate(heap, n=20)
        index = build_index("t_k", heap, ["k"])
        assert index.entry_count == 20

    def test_multi_column_key(self, heap):
        populate(heap)
        index = build_index("t_kv", heap, ["k", "v"])
        row_id, row = next(iter(heap.scan()))
        assert row_id in index.probe((row["k"], row["v"]))

    def test_probe_counter(self, heap):
        populate(heap)
        index = build_index("t_k", heap, ["k"])
        index.probe(1)
        index.probe(2)
        assert index.probes == 2

    def test_no_range_support(self, heap):
        index = build_index("t_k", heap, ["k"])
        assert not index.supports_range()


class TestOrderedIndex:
    def test_equality_probe(self, heap):
        ids = populate(heap)
        index = build_index("t_k", heap, ["k"], ordered=True)
        assert sorted(index.probe(4)) == sorted(ids[4])

    def test_range_probe_open(self, heap):
        populate(heap)
        index = build_index("t_k", heap, ["k"], ordered=True)
        rows = [heap.fetch(rid)["k"] for rid in index.probe_range(1, 4)]
        assert set(rows) == {2, 3}

    def test_range_probe_inclusive(self, heap):
        populate(heap)
        index = build_index("t_k", heap, ["k"], ordered=True)
        rows = [
            heap.fetch(rid)["k"]
            for rid in index.probe_range(1, 4, low_inclusive=True, high_inclusive=True)
        ]
        assert set(rows) == {1, 2, 3, 4}

    def test_range_probe_unbounded(self, heap):
        populate(heap)
        index = build_index("t_k", heap, ["k"], ordered=True)
        all_ids = index.probe_range(MINUS_INFINITY, PLUS_INFINITY)
        assert len(all_ids) == heap.row_count

    def test_min_max(self, heap):
        populate(heap)
        index = build_index("t_k", heap, ["k"], ordered=True)
        assert index.min_key() == 0
        assert index.max_key() == 4

    def test_min_on_empty_raises(self, heap):
        index = OrderedIndex("empty", heap, ["k"])
        with pytest.raises(IndexError_):
            index.min_key()

    def test_delete_collapses_empty_keys(self, heap):
        row_id = heap.insert((9, "only"))
        index = build_index("t_k", heap, ["k"], ordered=True)
        index.delete(heap.fetch(row_id), row_id)
        assert index.probe(9) == []
        assert 9 not in list(index.keys())

    def test_null_key_rejected(self, heap):
        index = OrderedIndex("t_k", heap, ["k"])
        from repro.engine.row import Row, RowId

        with pytest.raises(IndexError_):
            index.insert(Row((None, "x"), heap.schema), RowId(0, 0))

    def test_multi_column_rejected(self, heap):
        with pytest.raises(IndexError_):
            OrderedIndex("t_kv", heap, ["k", "v"])

    def test_string_keys_range(self, heap):
        pool = BufferPool(DiskManager(), capacity=8)
        schema = Schema([Column("s", TEXT, nullable=False)], relation_name="u")
        rel = HeapRelation("u", schema, pool)
        for word in ["apple", "banana", "cherry", "date"]:
            rel.insert((word,))
        index = build_index("u_s", rel, ["s"], ordered=True)
        hits = [rel.fetch(rid)["s"] for rid in index.probe_range("apple", "cherry", low_inclusive=True)]
        assert set(hits) == {"apple", "banana"}


class TestValidation:
    def test_unknown_column_rejected(self, heap):
        with pytest.raises(IndexError_):
            HashIndex("bad", heap, ["missing"])

    def test_empty_key_rejected(self, heap):
        with pytest.raises(IndexError_):
            HashIndex("bad", heap, [])

    def test_build_backfills_existing_rows(self, heap):
        populate(heap, n=10)
        index = build_index("t_k", heap, ["k"])
        assert index.entry_count == 10
