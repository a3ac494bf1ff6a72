"""Secondary indexes: hash (equality) and ordered (range).

Both index kinds map a key — one or more column values — to the
:class:`RowId`\\ s of matching heap records.  The index structures
themselves live in memory (as the upper levels of real B-trees
effectively do), but following a probe the executor still fetches the
pointed-to records through the buffer pool, so query plans that probe
an index many times generate the page traffic the paper describes for
its not-fully-pipelined plans.

:class:`OrderedIndex` keeps keys in a sorted list and answers range
probes with :mod:`bisect`, i.e. it behaves like a B-tree's leaf level.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, Sequence

from repro.engine.heap import HeapRelation
from repro.engine.row import Row, RowId
from repro.errors import IndexError_

__all__ = ["HashIndex", "OrderedIndex", "build_index"]


class _BaseIndex:
    """Shared bookkeeping for both index kinds."""

    def __init__(self, name: str, relation: HeapRelation, key_columns: Sequence[str]) -> None:
        if not key_columns:
            raise IndexError_("an index needs at least one key column")
        for column in key_columns:
            if not relation.schema.has_column(column):
                raise IndexError_(
                    f"index {name!r}: relation {relation.name!r} has no column {column!r}"
                )
        self.name = name
        self.relation = relation
        self.key_columns = tuple(key_columns)
        self.probes = 0
        self._entry_count = 0

    def key_of(self, row: Row) -> Any:
        """Extract this index's key from a row.

        Single-column keys are stored unwrapped so that range probes
        compare raw values; multi-column keys are tuples.
        """
        if len(self.key_columns) == 1:
            return row[self.key_columns[0]]
        return tuple(row[c] for c in self.key_columns)

    def _not_indexed(self, key: Any, row_id: RowId) -> IndexError_:
        """The error a delete of a posting the index does not hold raises."""
        return IndexError_(f"{self.name}: ({key!r}, {row_id}) not indexed")

    @property
    def entry_count(self) -> int:
        return self._entry_count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}({self.name!r}, on={self.key_columns}, "
            f"entries={self._entry_count})"
        )


class HashIndex(_BaseIndex):
    """Equality-only index: dict from key to row-id list."""

    def __init__(self, name: str, relation: HeapRelation, key_columns: Sequence[str]) -> None:
        super().__init__(name, relation, key_columns)
        self._buckets: dict[Any, list[RowId]] = {}

    def insert(self, row: Row, row_id: RowId) -> None:
        self._buckets.setdefault(self.key_of(row), []).append(row_id)
        self._entry_count += 1

    def delete(self, row: Row, row_id: RowId) -> None:
        key = self.key_of(row)
        bucket = self._buckets.get(key)
        if bucket is None:
            raise self._not_indexed(key, row_id)
        # remove() alone is one scan of the posting list (each step a
        # C-level tuple comparison); a membership test first would make
        # it two.  The scan is linear in the key's degree.
        try:
            bucket.remove(row_id)
        except ValueError:
            raise self._not_indexed(key, row_id) from None
        if not bucket:
            del self._buckets[key]
        self._entry_count -= 1

    def probe(self, key: Any) -> list[RowId]:
        """Row ids whose key equals ``key`` (possibly empty)."""
        self.probes += 1
        bucket = self._buckets.get(key)
        return bucket.copy() if bucket is not None else []

    def supports_range(self) -> bool:
        return False


class OrderedIndex(_BaseIndex):
    """Sorted single-column index supporting equality and range probes."""

    def __init__(self, name: str, relation: HeapRelation, key_columns: Sequence[str]) -> None:
        if len(key_columns) != 1:
            raise IndexError_("OrderedIndex supports exactly one key column")
        super().__init__(name, relation, key_columns)
        self._keys: list[Any] = []
        self._postings: list[list[RowId]] = []

    def _locate(self, key: Any) -> int:
        """Position of ``key`` in the sorted key list, or -1."""
        pos = bisect.bisect_left(self._keys, key)
        if pos < len(self._keys) and self._keys[pos] == key:
            return pos
        return -1

    def insert(self, row: Row, row_id: RowId) -> None:
        key = self.key_of(row)
        if key is None:
            raise IndexError_(f"{self.name}: NULL keys are not indexable")
        pos = bisect.bisect_left(self._keys, key)
        if pos < len(self._keys) and self._keys[pos] == key:
            self._postings[pos].append(row_id)
        else:
            self._keys.insert(pos, key)
            self._postings.insert(pos, [row_id])
        self._entry_count += 1

    def delete(self, row: Row, row_id: RowId) -> None:
        key = self.key_of(row)
        pos = self._locate(key)
        if pos < 0:
            raise self._not_indexed(key, row_id)
        try:
            self._postings[pos].remove(row_id)
        except ValueError:
            raise self._not_indexed(key, row_id) from None
        if not self._postings[pos]:
            del self._keys[pos]
            del self._postings[pos]
        self._entry_count -= 1

    def probe(self, key: Any) -> list[RowId]:
        """Row ids whose key equals ``key``."""
        self.probes += 1
        pos = self._locate(key)
        return list(self._postings[pos]) if pos >= 0 else []

    def probe_range(
        self,
        low: Any,
        high: Any,
        low_inclusive: bool = False,
        high_inclusive: bool = False,
    ) -> list[RowId]:
        """Row ids with keys in the (low, high) interval.

        ``low``/``high`` may be the Infinity sentinels from
        :mod:`repro.engine.datatypes` for unbounded ends.
        """
        from repro.engine.datatypes import Infinity

        self.probes += 1
        if isinstance(low, Infinity):
            start = 0 if low.sign < 0 else len(self._keys)
        else:
            start = (
                bisect.bisect_left(self._keys, low)
                if low_inclusive
                else bisect.bisect_right(self._keys, low)
            )
        if isinstance(high, Infinity):
            stop = len(self._keys) if high.sign > 0 else 0
        else:
            stop = (
                bisect.bisect_right(self._keys, high)
                if high_inclusive
                else bisect.bisect_left(self._keys, high)
            )
        return [
            row_id for posting in self._postings[start:stop] for row_id in posting
        ]

    def min_key(self) -> Any:
        if not self._keys:
            raise IndexError_(f"{self.name}: empty index has no min key")
        return self._keys[0]

    def max_key(self) -> Any:
        if not self._keys:
            raise IndexError_(f"{self.name}: empty index has no max key")
        return self._keys[-1]

    def keys(self) -> Iterator[Any]:
        return iter(self._keys)

    def supports_range(self) -> bool:
        return True


def build_index(
    name: str,
    relation: HeapRelation,
    key_columns: Sequence[str],
    ordered: bool = False,
) -> HashIndex | OrderedIndex:
    """Create an index over ``relation`` and backfill existing rows."""
    index: HashIndex | OrderedIndex
    if ordered:
        index = OrderedIndex(name, relation, key_columns)
    else:
        index = HashIndex(name, relation, key_columns)
    for row_id, row in relation.scan():
        index.insert(row, row_id)
    return index
