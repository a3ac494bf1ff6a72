"""Row representation.

A :class:`Row` pairs an immutable value tuple with the schema that
names its fields.  Rows hash and compare by value (schema-insensitive),
which is exactly the semantics the paper's duplicate-suppression
structure ``DS`` needs: a tuple delivered from the PMV in Operation O2
must compare equal to the same tuple produced by full execution in
Operation O3, even though the two paths build it independently.
"""

from __future__ import annotations

from operator import is_, itemgetter
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from repro.engine.schema import Schema

__all__ = ["Row", "RowId", "project_rows", "project_values"]


class RowId(NamedTuple):
    """Physical address of a record: (page number, slot number).

    A tuple, so equality, hashing and ordering are tuple's own C code:
    an index delete's ``list.remove`` over a long posting list runs no
    Python-level comparison.  Sorted row ids are in heap order: a heap
    scans its pages in allocation order, which is page-number order,
    and each page in slot order.
    """

    page_no: int
    slot_no: int

    def __repr__(self) -> str:
        return f"RowId({self.page_no}, {self.slot_no})"


class Row:
    """An immutable row of values described by a :class:`Schema`.

    Equality and hashing consider only the value tuple, not the schema,
    so rows from different plan shapes (PMV probe vs. full execution)
    compare equal when their values match.
    """

    __slots__ = ("values", "schema", "_hash")

    def __init__(self, values: Sequence[Any], schema: Schema) -> None:
        self.values = tuple(values)
        self.schema = schema
        self._hash = None

    # -- field access --------------------------------------------------------

    def __getitem__(self, key: Any) -> Any:
        if isinstance(key, int):
            return self.values[key]
        return self.values[self.schema.position(key)]

    def get(self, name: str, default: Any = None) -> Any:
        """Value of column ``name``, or ``default`` if absent."""
        if self.schema.has_column(name):
            return self.values[self.schema.position(name)]
        return default

    def project(self, names: Sequence[str], schema: Schema | None = None) -> "Row":
        """A new row containing only ``names``, in order.

        Builds a fresh projected schema unless one is passed; to project
        many rows, use :func:`project_values`, which resolves positions
        once per schema.
        """
        target = schema if schema is not None else self.schema.project(names)
        return Row([self[name] for name in names], target)

    def concat(self, other: "Row", schema: Schema) -> "Row":
        """Concatenate two rows under a precomputed joined schema."""
        return Row(self.values + other.values, schema)

    def replace(self, **updates: Any) -> "Row":
        """A copy of this row with named columns replaced."""
        values = list(self.values)
        for name, value in updates.items():
            values[self.schema.position(name)] = value
        return Row(values, self.schema)

    def as_dict(self) -> dict[str, Any]:
        """The row as a ``{bare_name: value}`` dict (for display/tests)."""
        return dict(zip(self.schema.names(), self.values))

    def byte_size(self) -> int:
        """Estimated storage footprint, via each column's type."""
        return sum(
            col.dtype.byte_size(value)
            for col, value in zip(self.schema.columns, self.values)
        )

    # -- dunder ----------------------------------------------------------------

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, Row) and other.values == self.values

    def __hash__(self) -> int:
        # Cached: duplicate suppression hashes the same PMV-resident
        # rows on every query that touches their entry.
        h = self._hash
        if h is None:
            h = hash(self.values)
            self._hash = h
        return h

    def __repr__(self) -> str:
        pairs = ", ".join(f"{n}={v!r}" for n, v in self.as_dict().items())
        return f"Row({pairs})"


def _projector(schema: Schema, names: Sequence[str]) -> Callable[[tuple], tuple] | None:
    """Resolve ``names`` against ``schema`` once: a function taking a
    value tuple over ``schema`` to its projection over ``names``, or
    ``None`` when that projection is the identity (``names`` picks every
    column, in order) and the tuple already is the projection.

    One name still projects to a 1-tuple: ``itemgetter`` with a single
    position would return the bare value.
    """
    positions = tuple(schema.position(name) for name in names)
    if positions == tuple(range(len(schema))):
        return None
    if len(positions) == 1:
        (position,) = positions
        return lambda values: (values[position],)
    return itemgetter(*positions)


def project_values(rows: Iterable[Row], names: Sequence[str]) -> list[tuple]:
    """Each row's value tuple projected to ``names``, in order.

    Positions are resolved once per run of rows sharing a schema, as the
    ``Project`` operator resolves them once per plan.  Under an identity
    projection each row's own tuple is handed back: nothing is built
    per row.
    """
    out: list[tuple] = []
    append = out.append
    schema = project = None
    for row in rows:
        if row.schema is not schema:
            schema = row.schema
            project = _projector(schema, names)
        append(row.values if project is None else project(row.values))
    return out


def project_rows(rows: list[Row], names: Sequence[str]) -> list[Row]:
    """``rows`` projected to ``names``: ``rows`` itself when every
    projection is the identity, otherwise the :func:`project_values`
    tuples under one projected schema built for the call."""
    values = project_values(rows, names)
    # An identity projection hands back each row's own tuple.
    if all(map(is_, values, (row.values for row in rows))):
        return rows
    schema = rows[0].schema.project(names)
    return [Row(v, schema) for v in values]
