"""``Database.delete_eq``: an equality delete that finds its rows by
index probe when the column has an index, and is indistinguishable
from the equivalent ``delete_where`` scan — same deleted rows, same
surviving heap, same WAL records in the same order."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Column, Database, FLOAT, INTEGER, WriteAheadLog
from repro.engine.heap import HeapRelation

# ``h`` carries a HashIndex, ``o`` an OrderedIndex (which refuses NULL
# keys, hence NOT NULL), ``n`` no index.  1 and 1.0 are distinct stored
# values that compare and hash equal.
STORED = [0, 1, 1.0, 2, 2.5]
NULLABLE = STORED + [None]
# Absent keys (7), NULL, and values no stored key orders against ("1")
# or hashes like ([1]): each equals no stored value.
PROBES = NULLABLE + [7, "1", [1]]

rows = st.lists(
    st.tuples(
        st.sampled_from(NULLABLE), st.sampled_from(STORED), st.sampled_from(NULLABLE)
    ),
    min_size=0,
    max_size=40,
)


def build(first, holes, refill) -> tuple[Database, int]:
    """A WAL-backed table over several small pages: insert ``first``,
    delete the rows at positions ``holes``, insert ``refill`` (which
    lands in the freed slots, so heap order departs from both insert
    order and posting order).  Returns the database and the WAL mark."""
    db = Database(page_size=256, wal=WriteAheadLog())
    db.create_relation(
        "t",
        [
            Column("id", INTEGER, nullable=False),
            Column("h", FLOAT),
            Column("o", FLOAT, nullable=False),
            Column("n", FLOAT),
        ],
    )
    db.create_index("t_h", "t", ["h"])
    db.create_index("t_o", "t", ["o"], ordered=True)
    ids = [db.insert("t", (i, *values)) for i, values in enumerate(first)]
    for position in sorted(holes):
        if position < len(ids):
            db.delete("t", ids[position])
    for i, values in enumerate(refill, start=len(first)):
        db.insert("t", (i, *values))
    return db, db.wal.last_lsn


def heap(db) -> list:
    return [(row_id, row.values) for row_id, row in db.catalog.relation("t").scan()]


def log_after(db, mark) -> list:
    return [(r.lsn, r.kind, r.payload) for r in db.wal.records(after_lsn=mark)]


@given(
    rows,
    st.sets(st.integers(0, 39), max_size=12),
    rows,
    st.sampled_from(["h", "o", "n"]),
    st.sampled_from(PROBES),
)
@settings(max_examples=150, deadline=None)
def test_delete_eq_matches_delete_where(first, holes, refill, column, value):
    scanned, mark = build(first, holes, refill)
    probed, probed_mark = build(first, holes, refill)
    assert heap(scanned) == heap(probed) and mark == probed_mark

    expected = scanned.delete_where("t", lambda row: row[column] == value)
    got = probed.delete_eq("t", column, value)

    assert [row.values for row in got] == [row.values for row in expected]
    assert heap(probed) == heap(scanned)
    assert log_after(probed, mark) == log_after(scanned, mark)
    for name in ("t_h", "t_o"):
        assert probed.catalog.index(name).entry_count == len(heap(probed))


@pytest.mark.parametrize("column", ["h", "o"])
def test_indexed_column_never_scans(monkeypatch, column):
    db, _ = build([(1, 1, 1), (2, 2, 2), (1.0, 1.0, 1.0), (None, 2.5, None)], (), ())

    def no_scan(self):
        raise AssertionError("delete_eq scanned an indexed relation")

    monkeypatch.setattr(HeapRelation, "scan", no_scan)
    deleted = db.delete_eq("t", column, 1)
    assert sorted(row["id"] for row in deleted) == [0, 2]
    assert db.delete_eq("t", column, 7) == []
    # The guard is live: the unindexed column takes the scan.
    with pytest.raises(AssertionError, match="scanned"):
        db.delete_eq("t", "n", 1)
