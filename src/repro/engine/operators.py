"""Volcano-style query operators over column batches.

Each operator exposes an output :class:`Schema` and one execution
method, :meth:`~Operator.execute_columns`, which yields
:class:`ColumnBatch` objects at page/probe granularity.  Operators
precompute column positions and value tests at construction and
process whole batches with local-variable loops, so the Python-level
per-tuple interpreter cost stays off the measured hot path.  No
:class:`~repro.engine.row.Row` is built here: the one place plan
output becomes rows is :meth:`repro.engine.database.Database.run`.

Join operators follow SQL: a ``None`` join key equals nothing, not
even another ``None``.

Plans built from these operators drive all page traffic through the
buffer pool, so measured I/O and latency reflect the plan's real work.

:class:`Materialize` models the paper's *blocking* plans ("traditional
query execution cannot provide any result until it almost finishes"):
it drains its child completely before emitting the first row.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence

from repro.engine.columns import ColumnBatch, coalesce_chunks
from repro.engine.heap import HeapRelation
from repro.engine.index import HashIndex, OrderedIndex
from repro.engine.predicate import Interval
from repro.engine.schema import Schema
from repro.errors import PlanningError

__all__ = [
    "Operator",
    "SeqScan",
    "IndexEqualityScan",
    "IndexRangeScan",
    "Filter",
    "Project",
    "IndexNestedLoopJoin",
    "Materialize",
    "NestedLoopJoin",
    "DEFAULT_BATCH_ROWS",
]

ColumnTests = Sequence[tuple[str, Callable[[Any], bool]]]
"""Vectorizable conjunctive predicate: ``(column_name, value_test)`` pairs."""

DEFAULT_BATCH_ROWS = 256
"""Rows per batch: the target the scans coalesce small pages and probes
up to per :class:`ColumnBatch`."""


def _compile_tests(schema: Schema, tests: ColumnTests) -> tuple[tuple[int, Callable], ...]:
    """Resolve named column tests to positional ones, once."""
    return tuple((schema.position(name), test) for name, test in tests)


class Operator:
    """Base class for plan operators: subclasses implement
    :meth:`execute_columns`."""

    schema: Schema

    def execute_columns(self) -> Iterator[ColumnBatch]:
        raise NotImplementedError

    def explain(self, indent: int = 0) -> str:
        """A one-line-per-operator plan rendering (for debugging/tests)."""
        lines = [("  " * indent) + self._describe()]
        for child in self._children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def _describe(self) -> str:
        return type(self).__name__

    def _children(self) -> Sequence["Operator"]:
        return ()


class SeqScan(Operator):
    """Full scan of a heap relation, with optional pushed-down tests.

    Reads each heap page once and filters the page's live rows as one
    batch.
    """

    def __init__(self, relation: HeapRelation, tests: ColumnTests = ()) -> None:
        self.relation = relation
        self.schema = relation.schema
        self._tests = _compile_tests(relation.schema, tests)

    def execute_columns(self) -> Iterator[ColumnBatch]:
        schema = self.schema
        tests = self._tests
        chunks = self.relation.scan_payload_chunks()
        for chunk in coalesce_chunks(chunks, DEFAULT_BATCH_ROWS):
            batch = ColumnBatch.from_tuples(chunk, schema)
            if tests:
                batch = batch.filter(tests)
            if batch:
                yield batch

    def _describe(self) -> str:
        suffix = " (filtered)" if self._tests else ""
        return f"SeqScan({self.relation.name}){suffix}"


class _IndexScan(Operator):
    """Shared body of the index scans: subclasses yield the row ids of
    each probe from ``_probes()``; this fetches, filters and batches."""

    def __init__(
        self, relation: HeapRelation, index: HashIndex | OrderedIndex, tests: ColumnTests
    ) -> None:
        if index.relation is not relation:
            raise PlanningError(f"index {index.name!r} is not on {relation.name!r}")
        self.relation = relation
        self.index = index
        self.schema = relation.schema
        self._tests = _compile_tests(relation.schema, tests)

    def execute_columns(self) -> Iterator[ColumnBatch]:
        schema = self.schema
        tests = self._tests
        fetch_payloads = self.relation.fetch_payloads
        chunks = (fetch_payloads(row_ids) for row_ids in self._probes() if row_ids)
        for chunk in coalesce_chunks(chunks, DEFAULT_BATCH_ROWS):
            batch = ColumnBatch.from_tuples(chunk, schema)
            if tests:
                batch = batch.filter(tests)
            if batch:
                yield batch


class IndexEqualityScan(_IndexScan):
    """Probe an index with each of a list of keys and fetch the rows.

    Implements the access path for an equality-form ``Ci``: one probe
    per disjunct value.
    """

    def __init__(
        self,
        relation: HeapRelation,
        index: HashIndex | OrderedIndex,
        keys: Sequence[Any],
        tests: ColumnTests = (),
    ) -> None:
        super().__init__(relation, index, tests)
        self.keys = list(keys)

    def _probes(self) -> Iterator[list]:
        probe = self.index.probe
        for key in self.keys:
            yield probe(key)

    def _describe(self) -> str:
        return (
            f"IndexEqualityScan({self.relation.name} via {self.index.name}, "
            f"{len(self.keys)} key(s))"
        )


class IndexRangeScan(_IndexScan):
    """Probe an ordered index with each of a list of intervals."""

    def __init__(
        self,
        relation: HeapRelation,
        index: OrderedIndex,
        intervals: Sequence[Interval],
        tests: ColumnTests = (),
    ) -> None:
        super().__init__(relation, index, tests)
        if not index.supports_range():
            raise PlanningError(f"index {index.name!r} does not support ranges")
        self.intervals = list(intervals)

    def _probes(self) -> Iterator[list]:
        probe_range = self.index.probe_range
        for interval in self.intervals:
            yield probe_range(
                interval.low,
                interval.high,
                low_inclusive=interval.low_inclusive,
                high_inclusive=interval.high_inclusive,
            )

    def _describe(self) -> str:
        return (
            f"IndexRangeScan({self.relation.name} via {self.index.name}, "
            f"{len(self.intervals)} interval(s))"
        )


class Filter(Operator):
    """A redundant join edge ``left = right`` over two columns the
    pipeline already carries."""

    def __init__(
        self, child: Operator, equal_columns: tuple[str, str], label: str = ""
    ) -> None:
        self.child = child
        self.label = label
        self.schema = child.schema
        left, right = equal_columns
        self._left = child.schema.position(left)
        self._right = child.schema.position(right)

    def execute_columns(self) -> Iterator[ColumnBatch]:
        left, right = self._left, self._right
        for batch in self.child.execute_columns():
            out = batch.filter_equal_columns(left, right)
            if out:
                yield out

    def _describe(self) -> str:
        return f"Filter({self.label})" if self.label else "Filter"

    def _children(self) -> Sequence[Operator]:
        return (self.child,)


class Project(Operator):
    """Project to a list of (possibly qualified) column names.

    Column positions are resolved against the child schema once, at
    construction.
    """

    def __init__(self, child: Operator, names: Sequence[str]) -> None:
        self.child = child
        self.names = tuple(names)
        self.schema = child.schema.project(self.names)
        self._positions = tuple(child.schema.position(n) for n in self.names)

    def execute_columns(self) -> Iterator[ColumnBatch]:
        # Zero-copy: the projected batch shares the picked column lists.
        positions = self._positions
        schema = self.schema
        for batch in self.child.execute_columns():
            yield batch.project(positions, schema)

    def _describe(self) -> str:
        return f"Project({', '.join(self.names)})"

    def _children(self) -> Sequence[Operator]:
        return (self.child,)


class IndexNestedLoopJoin(Operator):
    """Index nested-loop join: probe the inner index once per outer row.

    This is the plan shape Section 2.1 describes for ``Eqt``: fetch
    outer tuples, probe the inner join-attribute index for each.  When
    the inner side is selective the index is probed many times before
    the first result appears — the latency the PMV method targets.
    """

    def __init__(
        self,
        outer: Operator,
        inner_relation: HeapRelation,
        inner_index: HashIndex | OrderedIndex,
        outer_key: str,
        inner_tests: ColumnTests = (),
    ) -> None:
        if inner_index.relation is not inner_relation:
            raise PlanningError(
                f"index {inner_index.name!r} is not on {inner_relation.name!r}"
            )
        self.outer = outer
        self.inner_relation = inner_relation
        self.inner_index = inner_index
        self.outer_key = outer_key
        self.schema = outer.schema.concat(inner_relation.schema)
        self._key_pos = outer.schema.position(outer_key)
        self._inner_tests = _compile_tests(inner_relation.schema, inner_tests)

    def execute_columns(self) -> Iterator[ColumnBatch]:
        schema = self.schema
        key_pos = self._key_pos
        probe = self.inner_index.probe
        fetch_payloads = self.inner_relation.fetch_payloads
        tests = self._inner_tests
        for outer_batch in self.outer.execute_columns():
            out: list[tuple] = []
            append = out.append
            for outer_t in outer_batch.tuples():
                key = outer_t[key_pos]
                if key is None:
                    continue
                row_ids = probe(key)
                if not row_ids:
                    continue
                inners = fetch_payloads(row_ids)
                for pos, test in tests:
                    inners = [t for t in inners if test(t[pos])]
                for inner_t in inners:
                    append(outer_t + inner_t)
            if out:
                yield ColumnBatch.from_tuples(out, schema)

    def _describe(self) -> str:
        return (
            f"IndexNestedLoopJoin(inner={self.inner_relation.name} via "
            f"{self.inner_index.name}, outer_key={self.outer_key})"
        )

    def _children(self) -> Sequence[Operator]:
        return (self.outer,)


class NestedLoopJoin(Operator):
    """Fallback join for inner relations without a join-attribute index.

    Builds an in-memory hash table over the inner relation's value
    tuples on first use (one full scan), then probes it per outer row
    — i.e. a simple hash join.  The planner only picks this when no
    index exists, keeping the paper's index-nested-loop shape the
    default.
    """

    def __init__(
        self,
        outer: Operator,
        inner_relation: HeapRelation,
        inner_key: str,
        outer_key: str,
        inner_tests: ColumnTests = (),
    ) -> None:
        self.outer = outer
        self.inner_relation = inner_relation
        self.inner_key = inner_key
        self.outer_key = outer_key
        self.schema = outer.schema.concat(inner_relation.schema)
        self._key_pos = outer.schema.position(outer_key)
        self._inner_pos = inner_relation.schema.position(inner_key)
        self._inner_tests = _compile_tests(inner_relation.schema, inner_tests)

    def _build_table(self) -> dict[Any, list[tuple]]:
        """Hash-join build: inner value tuples by non-``None`` join key."""
        inner_pos = self._inner_pos
        tests = self._inner_tests
        table: dict[Any, list[tuple]] = {}
        for chunk in self.inner_relation.scan_payload_chunks():
            for pos, test in tests:
                chunk = [t for t in chunk if test(t[pos])]
            for inner_t in chunk:
                key = inner_t[inner_pos]
                if key is not None:
                    table.setdefault(key, []).append(inner_t)
        return table

    def execute_columns(self) -> Iterator[ColumnBatch]:
        schema = self.schema
        key_pos = self._key_pos
        get = self._build_table().get
        for outer_batch in self.outer.execute_columns():
            out: list[tuple] = []
            append = out.append
            for outer_t in outer_batch.tuples():
                for inner_t in get(outer_t[key_pos], ()):
                    append(outer_t + inner_t)
            if out:
                yield ColumnBatch.from_tuples(out, schema)

    def _describe(self) -> str:
        return (
            f"NestedLoopJoin(inner={self.inner_relation.name} hashed on "
            f"{self.inner_key}, outer_key={self.outer_key})"
        )

    def _children(self) -> Sequence[Operator]:
        return (self.outer,)


class Materialize(Operator):
    """Drain the child fully before emitting anything.

    Models blocking plans: with ``Materialize`` at the root, the first
    output row appears only after the whole input has been computed,
    exactly the behaviour that motivates PMVs.  The child's batch
    boundaries survive the full drain, so downstream per-batch
    accounting sees the same granularity as the non-blocking pipeline.
    """

    def __init__(self, child: Operator) -> None:
        self.child = child
        self.schema = child.schema

    def execute_columns(self) -> Iterator[ColumnBatch]:
        buffered = list(self.child.execute_columns())
        yield from buffered

    def _describe(self) -> str:
        return "Materialize"

    def _children(self) -> Sequence[Operator]:
        return (self.child,)
