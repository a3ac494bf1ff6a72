"""Columnar batches for the vectorized execution path.

A :class:`ColumnBatch` is the unit of data flow on the columnar
pipeline: a shared :class:`~repro.engine.schema.Schema` plus the batch's
values in one of two layouts —

- *row-major*: a list of plain value tuples (the layout heap pages,
  index fetches, and join outputs produce naturally, and the layout the
  duplicate suppressor keys on);
- *column-major*: one Python list per column (the layout predicate
  evaluation and projection want).

Conversion between the two is a single C-speed ``zip`` and is performed
lazily, then cached, so each operator works in whichever layout is
natural and the transpose happens at most once per batch per direction.
Projection in column-major layout is zero-copy (it picks column list
references); filtering composes a *selection vector* (a list of
surviving row indices) per predicate column and gathers once at the
end.

No ``Row`` objects exist anywhere on this path — :meth:`ColumnBatch.rows`
materializes them only at the client boundary (the
``PMVQueryResult`` fields and row-at-a-time consumers).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.engine.row import Row
from repro.engine.schema import Schema

__all__ = ["ColumnBatch", "coalesce_chunks"]

ValueTest = Callable[[Any], bool]


class ColumnBatch:
    """One batch of result data with a shared schema.

    Exactly one of ``tuples`` (row-major) or ``columns`` (column-major)
    must be supplied; the other layout is derived lazily via ``zip``
    and cached.  Batches are treated as immutable by the pipeline —
    operators build new batches rather than mutating inputs.
    """

    __slots__ = ("schema", "_tuples", "_columns")

    def __init__(
        self,
        schema: Schema,
        tuples: list[tuple] | None = None,
        columns: list[list] | None = None,
    ) -> None:
        if (tuples is None) == (columns is None):
            raise ValueError("supply exactly one of tuples= or columns=")
        self.schema = schema
        self._tuples = tuples
        self._columns = columns

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_tuples(cls, tuples: list[tuple], schema: Schema) -> "ColumnBatch":
        return cls(schema, tuples=tuples)

    @classmethod
    def from_columns(cls, columns: list[list], schema: Schema) -> "ColumnBatch":
        return cls(schema, columns=columns)

    # -- layout access ----------------------------------------------------------

    def tuples(self) -> list[tuple]:
        """Row-major layout (transposing and caching if needed)."""
        tuples = self._tuples
        if tuples is None:
            tuples = list(zip(*self._columns)) if self._columns[0] else []
            self._tuples = tuples
        return tuples

    def columns(self) -> list[list]:
        """Column-major layout (transposing and caching if needed)."""
        columns = self._columns
        if columns is None:
            if self._tuples:
                columns = [list(col) for col in zip(*self._tuples)]
            else:
                columns = [[] for _ in self.schema.columns]
            self._columns = columns
        return columns

    def column(self, position: int) -> Sequence[Any]:
        """One column's value vector."""
        return self.columns()[position]

    # -- vectorized operations --------------------------------------------------

    def filter(self, tests: Sequence[tuple[int, ValueTest]]) -> "ColumnBatch":
        """Apply conjunctive per-column value tests.

        In column-major layout each test narrows a selection vector of
        surviving row indices over its own column, and survivors are
        gathered once; in row-major layout each test filters the tuple
        list directly (one C-speed list comprehension per test).
        """
        if not tests:
            return self
        if self._columns is not None and self._tuples is None:
            columns = self._columns
            selection: Iterable[int] = range(len(columns[0]) if columns else 0)
            for position, test in tests:
                column = columns[position]
                selection = [i for i in selection if test(column[i])]
                if not selection:
                    return ColumnBatch(self.schema, tuples=[])
            return self.take(list(selection))
        tuples = self.tuples()
        for position, test in tests:
            tuples = [t for t in tuples if test(t[position])]
            if not tuples:
                break
        return ColumnBatch(self.schema, tuples=tuples)

    def filter_equal_columns(self, left: int, right: int) -> "ColumnBatch":
        """Keep rows where two columns are equal (residual join edges);
        a ``None`` equals nothing, as in a join."""
        if self._columns is not None and self._tuples is None:
            columns = self._columns
            lcol, rcol = columns[left], columns[right]
            selection = [
                i
                for i in range(len(lcol))
                if lcol[i] == rcol[i] and lcol[i] is not None
            ]
            return self.take(selection)
        tuples = [
            t for t in self.tuples() if t[left] == t[right] and t[left] is not None
        ]
        return ColumnBatch(self.schema, tuples=tuples)

    def take(self, selection: Sequence[int]) -> "ColumnBatch":
        """Gather the rows named by a selection vector, in order."""
        if self._columns is not None and self._tuples is None:
            return ColumnBatch(
                self.schema,
                columns=[[col[i] for i in selection] for col in self._columns],
            )
        tuples = self._tuples
        return ColumnBatch(self.schema, tuples=[tuples[i] for i in selection])

    def project(self, positions: Sequence[int], schema: Schema) -> "ColumnBatch":
        """Project to the given column positions under a new schema.

        Zero-copy in column-major layout: the projected batch shares
        the picked column lists.
        """
        columns = self.columns()
        return ColumnBatch(schema, columns=[columns[p] for p in positions])

    # -- the client boundary ----------------------------------------------------

    def rows(self) -> list[Row]:
        """Materialize :class:`Row` objects (client boundary only)."""
        schema = self.schema
        return [Row(values, schema) for values in self.tuples()]

    # -- dunder -----------------------------------------------------------------

    def __len__(self) -> int:
        if self._tuples is not None:
            return len(self._tuples)
        columns = self._columns
        return len(columns[0]) if columns else 0

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        layout = "tuples" if self._tuples is not None else "columns"
        return f"ColumnBatch({len(self)} rows, {layout})"


def coalesce_chunks(
    chunks: Iterable[list[tuple]], batch_rows: int
) -> Iterator[list[tuple]]:
    """Merge small row-major chunks up to ``batch_rows`` rows.

    Heap pages and index probes produce chunks at physical granularity,
    often far smaller than a worthwhile vector.  This generator
    accumulates consecutive chunks until at least ``batch_rows`` rows
    are buffered, then emits them as one chunk.  Chunks already at or
    above the threshold pass through (concatenation order — and hence
    flattened row order — is always preserved); batches may therefore
    exceed ``batch_rows`` when a single page or probe produces more.
    """
    pending: list[tuple] = []
    for chunk in chunks:
        if not chunk:
            continue
        if not pending and len(chunk) >= batch_rows:
            yield chunk
            continue
        pending.extend(chunk)
        if len(pending) >= batch_rows:
            yield pending
            pending = []
    if pending:
        yield pending
