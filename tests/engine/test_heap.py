"""Unit tests for heap relations."""

import pytest

from repro.engine.bufferpool import BufferPool
from repro.engine.datatypes import INTEGER, TEXT
from repro.engine.disk import DiskManager
from repro.engine.heap import HeapRelation
from repro.engine.row import RowId
from repro.engine.schema import Column, Schema
from repro.errors import SchemaError, StorageError


@pytest.fixture
def heap():
    disk = DiskManager()
    pool = BufferPool(disk, capacity=8)
    schema = Schema(
        [Column("id", INTEGER, nullable=False), Column("name", TEXT)],
        relation_name="t",
    )
    return HeapRelation("t", schema, pool)


class TestInsertFetch:
    def test_roundtrip(self, heap):
        row_id = heap.insert((1, "alpha"))
        row = heap.fetch(row_id)
        assert row.values == (1, "alpha")

    def test_row_count(self, heap):
        heap.insert((1, "a"))
        heap.insert((2, "b"))
        assert heap.row_count == 2
        assert len(heap) == 2

    def test_type_checked_on_insert(self, heap):
        with pytest.raises(SchemaError):
            heap.insert((None, "x"))  # id is NOT NULL

    def test_insert_many(self, heap):
        ids = heap.insert_many([(i, f"n{i}") for i in range(5)])
        assert len(ids) == 5
        assert heap.row_count == 5

    def test_spills_to_multiple_pages(self, heap):
        for i in range(2000):
            heap.insert((i, "x" * 20))
        assert heap.page_count > 1
        assert heap.row_count == 2000

    def test_oversized_row_raises(self, heap):
        with pytest.raises(StorageError):
            heap.insert((1, "x" * 20_000))


class TestDelete:
    def test_delete_returns_row(self, heap):
        row_id = heap.insert((1, "a"))
        deleted = heap.delete(row_id)
        assert deleted.values == (1, "a")
        assert heap.row_count == 0

    def test_fetch_deleted_raises(self, heap):
        row_id = heap.insert((1, "a"))
        heap.delete(row_id)
        with pytest.raises(StorageError):
            heap.fetch(row_id)

    def test_foreign_rowid_rejected(self, heap):
        with pytest.raises(StorageError):
            heap.fetch(RowId(999, 0))

    def test_space_reused_after_delete(self, heap):
        ids = [heap.insert((i, "x" * 100)) for i in range(50)]
        pages_before = heap.page_count
        for row_id in ids:
            heap.delete(row_id)
        for i in range(50):
            heap.insert((i, "x" * 100))
        assert heap.page_count == pages_before


class TestUpdate:
    def test_in_place(self, heap):
        row_id = heap.insert((1, "a"))
        old, new, new_id = heap.update(row_id, name="b")
        assert old.values == (1, "a")
        assert new.values == (1, "b")
        assert new_id == row_id

    def test_relocation_when_grown(self, heap):
        # Fill the first page almost completely, then grow a row.
        ids = [heap.insert((i, "x" * 780)) for i in range(10)]
        target = ids[0]
        old, new, new_id = heap.update(target, name="y" * 4000)
        assert heap.fetch(new_id).values == new.values
        assert heap.row_count == 10

    def test_update_is_validated(self, heap):
        row_id = heap.insert((1, "a"))
        with pytest.raises(SchemaError):
            heap.update(row_id, id=None)


class TestScan:
    def test_scan_sees_all_live_rows(self, heap):
        for i in range(10):
            heap.insert((i, f"n{i}"))
        assert sorted(row["id"] for _, row in heap.scan()) == list(range(10))

    def test_scan_skips_deleted(self, heap):
        ids = [heap.insert((i, "x")) for i in range(4)]
        heap.delete(ids[1])
        assert sorted(row["id"] for _, row in heap.scan()) == [0, 2, 3]

    def test_find(self, heap):
        for i in range(10):
            heap.insert((i, f"n{i}"))
        matches = list(heap.find(lambda row: row["id"] % 3 == 0))
        assert sorted(row["id"] for _, row in matches) == [0, 3, 6, 9]

    def test_truncate(self, heap):
        for i in range(10):
            heap.insert((i, "x"))
        heap.truncate()
        assert heap.row_count == 0
        assert list(heap.scan()) == []
        heap.insert((1, "back"))
        assert heap.row_count == 1


class TestScanBatches:
    """The per-page payload batches of ``scan_payload_chunks``."""

    def test_batches_flatten_to_scan(self, heap):
        for i in range(500):
            heap.insert((i, "x" * 30))
        flat = [t[0] for chunk in heap.scan_payload_chunks() for t in chunk]
        assert flat == [row["id"] for _, row in heap.scan()]

    def test_one_batch_per_page(self, heap):
        for i in range(2000):
            heap.insert((i, "x" * 20))
        chunks = list(heap.scan_payload_chunks())
        assert len(chunks) == heap.page_count
        assert sum(len(chunk) for chunk in chunks) == 2000

    def test_skips_deleted_and_empty_pages(self, heap):
        ids = [heap.insert((i, "x" * 200)) for i in range(60)]
        for row_id in ids[:40]:
            heap.delete(row_id)
        flat = sorted(t[0] for chunk in heap.scan_payload_chunks() for t in chunk)
        assert flat == list(range(40, 60))
        # Fully-emptied pages yield no (empty) batches.
        assert all(chunk for chunk in heap.scan_payload_chunks())

    def test_empty_relation_yields_nothing(self, heap):
        assert list(heap.scan_payload_chunks()) == []


class TestInsertManyFastPath:
    def test_bulk_equals_singles(self, heap):
        rows = [(i, f"n{i}" * 8) for i in range(800)]
        ids = heap.insert_many(rows)
        assert len(ids) == len(set(ids)) == 800
        assert sorted(row["id"] for _, row in heap.scan()) == list(range(800))

    def test_bulk_validates_each_row(self, heap):
        with pytest.raises(SchemaError):
            heap.insert_many([(1, "ok"), (None, "bad")])

    def test_bulk_oversized_row_raises(self, heap):
        with pytest.raises(StorageError):
            heap.insert_many([(1, "x" * 20_000)])

    def test_delete_reopens_page_for_bulk_insert(self, heap):
        ids = heap.insert_many([(i, "x" * 200) for i in range(100)])
        pages_before = heap.page_count
        for row_id in ids:
            heap.delete(row_id)
        heap.insert_many([(i, "x" * 200) for i in range(100)])
        assert heap.page_count == pages_before

    def test_bulk_after_truncate(self, heap):
        heap.insert_many([(i, "x") for i in range(50)])
        heap.truncate()
        heap.insert_many([(i, "y") for i in range(50)])
        assert heap.row_count == 50


class TestPayloadAccess:
    def test_fetch_payload_roundtrip(self, heap):
        row_id = heap.insert((1, "alpha"))
        assert heap.fetch_payload(row_id) == (1, "alpha")

    def test_fetch_payload_deleted_raises(self, heap):
        row_id = heap.insert((1, "a"))
        heap.delete(row_id)
        with pytest.raises(StorageError):
            heap.fetch_payload(row_id)

    def test_fetch_payloads_in_input_order(self, heap):
        ids = heap.insert_many([(i, f"n{i}") for i in range(6)])
        wanted = [ids[4], ids[1], ids[3]]
        assert heap.fetch_payloads(wanted) == [(4, "n4"), (1, "n1"), (3, "n3")]

    def test_fetch_payloads_one_pin_per_page_run(self, heap):
        ids = heap.insert_many([(i, "x" * 200) for i in range(100)])
        assert heap.page_count > 1
        stats = heap._pool.stats
        fetches_before = stats.hits + stats.misses
        heap.fetch_payloads(ids)  # physical order: one run per page
        assert (stats.hits + stats.misses) - fetches_before == heap.page_count

    def test_fetch_payloads_foreign_rowid_rejected(self, heap):
        heap.insert((1, "a"))
        with pytest.raises(StorageError):
            heap.fetch_payloads([RowId(999, 0)])

    def test_scan_payload_chunks_matches_scan(self, heap):
        heap.insert_many([(i, f"n{i}") for i in range(50)])
        flat = [t for chunk in heap.scan_payload_chunks() for t in chunk]
        assert flat == [row.values for row in heap.scan_rows()]

    def test_scan_payload_chunks_skips_empty_pages(self, heap):
        ids = heap.insert_many([(i, "x" * 200) for i in range(60)])
        # Empty one whole page.
        first_page = ids[0].page_no
        for row_id in ids:
            if row_id.page_no == first_page:
                heap.delete(row_id)
        chunks = list(heap.scan_payload_chunks())
        assert all(chunks)
        assert len(chunks) < heap.page_count


class TestPageSetCache:
    def test_equal_length_page_swap_invalidates_cache(self, heap):
        """Regression: the ownership cache used to key on list length
        only, so replacing ``_page_nos`` with a *different* list of the
        same length kept validating row ids against the stale set."""
        row_id = heap.insert((1, "a"))
        heap.fetch(row_id)  # populate the page-set cache
        heap._page_nos = [page_no + 1000 for page_no in heap._page_nos]
        with pytest.raises(StorageError):
            heap.fetch(row_id)

    def test_swapped_in_pages_become_visible(self, heap):
        row_id = heap.insert((1, "a"))
        heap.fetch(row_id)
        original = heap._page_nos
        heap._page_nos = [page_no + 1000 for page_no in original]
        assert (row_id.page_no + 1000) in heap._page_set
        heap._page_nos = original
        assert heap.fetch(row_id).values == (1, "a")

    def test_in_place_append_still_invalidates(self, heap):
        row_id = heap.insert((1, "a"))
        heap.fetch(row_id)
        # Simulate a snapshot restore appending to the same list object.
        heap._page_nos.append(4242)
        assert 4242 in heap._page_set


class TestIO:
    def test_scan_beyond_pool_generates_reads(self):
        disk = DiskManager()
        pool = BufferPool(disk, capacity=2)
        schema = Schema([Column("id", INTEGER), Column("pad", TEXT)], relation_name="t")
        heap = HeapRelation("t", schema, pool)
        for i in range(200):
            heap.insert((i, "x" * 200))
        assert heap.page_count > 2
        reads_before = disk.stats.reads
        list(heap.scan())
        assert disk.stats.reads > reads_before
