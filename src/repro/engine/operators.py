"""Volcano-style query operators with a batched execution path.

Each operator exposes an output :class:`Schema` and two execution
methods: :meth:`~Operator.execute` yields :class:`Row` objects one at
a time (the classic iterator protocol), and
:meth:`~Operator.execute_batches` yields *lists* of rows at page/probe
granularity.  The batch path is the hot one: operators precompute
column positions and predicate closures at construction and process
whole batches with local-variable loops, so the Python-level
per-tuple interpreter cost stays off the measured hot path.  The two
paths produce identical rows in identical order.

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
from repro.engine.row import Row
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

RowPredicate = Callable[[Row], bool]

ColumnTests = Sequence[tuple[str, Callable[[Any], bool]]]
"""Vectorizable conjunctive predicate: ``(column_name, value_test)`` pairs."""

DEFAULT_BATCH_ROWS = 256
"""Rows per batch: the target the scans coalesce small pages and probes
up to per :class:`ColumnBatch`."""


def _compile_tests(schema: Schema, tests: ColumnTests) -> tuple[tuple[int, Callable], ...]:
    """Resolve named column tests to positional ones, once."""
    return tuple((schema.position(name), test) for name, test in tests)


class Operator:
    """Base class for plan operators.

    Subclasses implement :meth:`execute_columns` (the path every
    query runs) and :meth:`execute_batches` (its row twin, the tests'
    reference); :meth:`execute` flattens the latter.
    """

    schema: Schema

    def execute(self) -> Iterator[Row]:
        for batch in self.execute_batches():
            yield from batch

    def execute_batches(self) -> Iterator[list[Row]]:
        raise NotImplementedError

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
    """Full scan of a heap relation, with an optional pushed-down filter.

    Reads each heap page once and filters the page's live rows as one
    batch.
    """

    def __init__(
        self,
        relation: HeapRelation,
        predicate: RowPredicate | None = None,
        tests: ColumnTests | None = None,
    ) -> None:
        self.relation = relation
        self.predicate = predicate
        self.schema = relation.schema
        self._tests = None if tests is None else _compile_tests(relation.schema, tests)

    def execute_batches(self) -> Iterator[list[Row]]:
        predicate = self.predicate
        for batch in self.relation.scan_batches():
            if predicate is not None:
                batch = [row for row in batch if predicate(row)]
            if batch:
                yield batch

    def execute_columns(self) -> Iterator[ColumnBatch]:
        if self.predicate is not None and self._tests is None:
            # Black-box predicate with no vector form: row path rules.
            yield from Operator.execute_columns(self)
            return
        schema = self.schema
        tests = self._tests or ()
        chunks = self.relation.scan_payload_chunks()
        for chunk in coalesce_chunks(chunks, DEFAULT_BATCH_ROWS):
            batch = ColumnBatch.from_tuples(chunk, schema)
            if tests:
                batch = batch.filter(tests)
            if batch:
                yield batch

    def _describe(self) -> str:
        suffix = " (filtered)" if (self.predicate or self._tests) else ""
        return f"SeqScan({self.relation.name}){suffix}"


class IndexEqualityScan(Operator):
    """Probe an index with each of a list of keys and fetch the rows.

    Implements the access path for an equality-form ``Ci``: one probe
    per disjunct value; each probe's fetched rows form one batch.
    """

    def __init__(
        self,
        relation: HeapRelation,
        index: HashIndex | OrderedIndex,
        keys: Sequence[Any],
        predicate: RowPredicate | None = None,
        tests: ColumnTests | None = None,
    ) -> None:
        if index.relation is not relation:
            raise PlanningError(f"index {index.name!r} is not on {relation.name!r}")
        self.relation = relation
        self.index = index
        self.keys = list(keys)
        self.predicate = predicate
        self.schema = relation.schema
        self._tests = None if tests is None else _compile_tests(relation.schema, tests)

    def execute_batches(self) -> Iterator[list[Row]]:
        fetch = self.relation.fetch
        predicate = self.predicate
        for key in self.keys:
            row_ids = self.index.probe(key)
            if predicate is None:
                batch = [fetch(row_id) for row_id in row_ids]
            else:
                batch = [
                    row for row_id in row_ids if predicate(row := fetch(row_id))
                ]
            if batch:
                yield batch

    def execute_columns(self) -> Iterator[ColumnBatch]:
        if self.predicate is not None and self._tests is None:
            yield from Operator.execute_columns(self)
            return
        schema = self.schema
        tests = self._tests or ()
        fetch_payloads = self.relation.fetch_payloads
        probe = self.index.probe

        def probe_chunks() -> Iterator[list[tuple]]:
            for key in self.keys:
                row_ids = probe(key)
                if row_ids:
                    yield fetch_payloads(row_ids)

        for chunk in coalesce_chunks(probe_chunks(), DEFAULT_BATCH_ROWS):
            batch = ColumnBatch.from_tuples(chunk, schema)
            if tests:
                batch = batch.filter(tests)
            if batch:
                yield batch

    def _describe(self) -> str:
        return (
            f"IndexEqualityScan({self.relation.name} via {self.index.name}, "
            f"{len(self.keys)} key(s))"
        )


class IndexRangeScan(Operator):
    """Probe an ordered index with each of a list of intervals."""

    def __init__(
        self,
        relation: HeapRelation,
        index: OrderedIndex,
        intervals: Sequence[Interval],
        predicate: RowPredicate | None = None,
        tests: ColumnTests | None = None,
    ) -> None:
        if index.relation is not relation:
            raise PlanningError(f"index {index.name!r} is not on {relation.name!r}")
        if not index.supports_range():
            raise PlanningError(f"index {index.name!r} does not support ranges")
        self.relation = relation
        self.index = index
        self.intervals = list(intervals)
        self.predicate = predicate
        self.schema = relation.schema
        self._tests = None if tests is None else _compile_tests(relation.schema, tests)

    def execute_batches(self) -> Iterator[list[Row]]:
        fetch = self.relation.fetch
        predicate = self.predicate
        for interval in self.intervals:
            row_ids = self.index.probe_range(
                interval.low,
                interval.high,
                low_inclusive=interval.low_inclusive,
                high_inclusive=interval.high_inclusive,
            )
            if predicate is None:
                batch = [fetch(row_id) for row_id in row_ids]
            else:
                batch = [
                    row for row_id in row_ids if predicate(row := fetch(row_id))
                ]
            if batch:
                yield batch

    def execute_columns(self) -> Iterator[ColumnBatch]:
        if self.predicate is not None and self._tests is None:
            yield from Operator.execute_columns(self)
            return
        schema = self.schema
        tests = self._tests or ()
        fetch_payloads = self.relation.fetch_payloads
        probe_range = self.index.probe_range

        def probe_chunks() -> Iterator[list[tuple]]:
            for interval in self.intervals:
                row_ids = probe_range(
                    interval.low,
                    interval.high,
                    low_inclusive=interval.low_inclusive,
                    high_inclusive=interval.high_inclusive,
                )
                if row_ids:
                    yield fetch_payloads(row_ids)

        for chunk in coalesce_chunks(probe_chunks(), DEFAULT_BATCH_ROWS):
            batch = ColumnBatch.from_tuples(chunk, schema)
            if tests:
                batch = batch.filter(tests)
            if batch:
                yield batch

    def _describe(self) -> str:
        return (
            f"IndexRangeScan({self.relation.name} via {self.index.name}, "
            f"{len(self.intervals)} interval(s))"
        )


class Filter(Operator):
    """Apply a residual predicate."""

    def __init__(
        self,
        child: Operator,
        predicate: RowPredicate,
        label: str = "",
        tests: ColumnTests | None = None,
        equal_columns: tuple[str, str] | None = None,
    ) -> None:
        self.child = child
        self.predicate = predicate
        self.label = label
        self.schema = child.schema
        self._tests = None if tests is None else _compile_tests(child.schema, tests)
        if equal_columns is None:
            self._equal_positions = None
        else:
            left, right = equal_columns
            self._equal_positions = (
                child.schema.position(left),
                child.schema.position(right),
            )

    def execute_batches(self) -> Iterator[list[Row]]:
        predicate = self.predicate
        for batch in self.child.execute_batches():
            out = [row for row in batch if predicate(row)]
            if out:
                yield out

    def execute_columns(self) -> Iterator[ColumnBatch]:
        if self._equal_positions is not None:
            left, right = self._equal_positions
            for batch in self.child.execute_columns():
                out = batch.filter_equal_columns(left, right)
                if out:
                    yield out
        elif self._tests is not None:
            tests = self._tests
            for batch in self.child.execute_columns():
                out = batch.filter(tests)
                if out:
                    yield out
        else:
            # Black-box predicate: the row path is authoritative.
            yield from Operator.execute_columns(self)

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

    def execute_batches(self) -> Iterator[list[Row]]:
        positions = self._positions
        schema = self.schema
        for batch in self.child.execute_batches():
            yield [
                Row([values[p] for p in positions], schema)
                for values in (row.values for row in batch)
            ]

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
        inner_predicate: RowPredicate | None = None,
        inner_tests: ColumnTests | None = None,
    ) -> None:
        if inner_index.relation is not inner_relation:
            raise PlanningError(
                f"index {inner_index.name!r} is not on {inner_relation.name!r}"
            )
        self.outer = outer
        self.inner_relation = inner_relation
        self.inner_index = inner_index
        self.outer_key = outer_key
        self.inner_predicate = inner_predicate
        self.schema = outer.schema.concat(inner_relation.schema)
        self._key_pos = outer.schema.position(outer_key)
        self._inner_tests = (
            None
            if inner_tests is None
            else _compile_tests(inner_relation.schema, inner_tests)
        )

    def execute_batches(self) -> Iterator[list[Row]]:
        schema = self.schema
        key_pos = self._key_pos
        probe = self.inner_index.probe
        fetch = self.inner_relation.fetch
        predicate = self.inner_predicate
        for outer_batch in self.outer.execute_batches():
            out: list[Row] = []
            append = out.append
            for outer_row in outer_batch:
                outer_values = outer_row.values
                for row_id in probe(outer_values[key_pos]):
                    inner_row = fetch(row_id)
                    if predicate is None or predicate(inner_row):
                        append(Row(outer_values + inner_row.values, schema))
            if out:
                yield out

    def execute_columns(self) -> Iterator[ColumnBatch]:
        if self.inner_predicate is not None and self._inner_tests is None:
            yield from Operator.execute_columns(self)
            return
        schema = self.schema
        key_pos = self._key_pos
        probe = self.inner_index.probe
        fetch_payloads = self.inner_relation.fetch_payloads
        tests = self._inner_tests or ()
        for outer_batch in self.outer.execute_columns():
            out: list[tuple] = []
            append = out.append
            for outer_t in outer_batch.tuples():
                row_ids = probe(outer_t[key_pos])
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

    Materializes an in-memory hash table over the inner relation on
    first use (one full scan), then probes it per outer row — i.e. a
    simple hash join.  The planner only picks this when no index
    exists, keeping the paper's index-nested-loop shape the default.
    """

    def __init__(
        self,
        outer: Operator,
        inner_relation: HeapRelation,
        inner_key: str,
        outer_key: str,
        inner_predicate: RowPredicate | None = None,
        inner_tests: ColumnTests | None = None,
    ) -> None:
        self.outer = outer
        self.inner_relation = inner_relation
        self.inner_key = inner_key
        self.outer_key = outer_key
        self.inner_predicate = inner_predicate
        self.schema = outer.schema.concat(inner_relation.schema)
        self._key_pos = outer.schema.position(outer_key)
        self._inner_pos = inner_relation.schema.position(inner_key)
        self._inner_tests = (
            None
            if inner_tests is None
            else _compile_tests(inner_relation.schema, inner_tests)
        )

    def _build_table(self) -> dict[Any, list[Row]]:
        inner_pos = self._inner_pos
        predicate = self.inner_predicate
        table: dict[Any, list[Row]] = {}
        for batch in self.inner_relation.scan_batches():
            for inner_row in batch:
                if predicate is None or predicate(inner_row):
                    table.setdefault(inner_row.values[inner_pos], []).append(inner_row)
        return table

    def _build_payload_table(self) -> dict[Any, list[tuple]]:
        """Hash-join build over raw value tuples (columnar path)."""
        inner_pos = self._inner_pos
        tests = self._inner_tests or ()
        table: dict[Any, list[tuple]] = {}
        for chunk in self.inner_relation.scan_payload_chunks():
            for pos, test in tests:
                chunk = [t for t in chunk if test(t[pos])]
            for inner_t in chunk:
                table.setdefault(inner_t[inner_pos], []).append(inner_t)
        return table

    def execute_batches(self) -> Iterator[list[Row]]:
        schema = self.schema
        key_pos = self._key_pos
        table = self._build_table()
        get = table.get
        for outer_batch in self.outer.execute_batches():
            out: list[Row] = []
            append = out.append
            for outer_row in outer_batch:
                outer_values = outer_row.values
                for inner_row in get(outer_values[key_pos], ()):
                    append(Row(outer_values + inner_row.values, schema))
            if out:
                yield out

    def execute_columns(self) -> Iterator[ColumnBatch]:
        if self.inner_predicate is not None and self._inner_tests is None:
            yield from Operator.execute_columns(self)
            return
        schema = self.schema
        key_pos = self._key_pos
        get = self._build_payload_table().get
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
    exactly the behaviour that motivates PMVs.  The batch path
    preserves the child's batch boundaries after the full drain, so
    downstream per-batch accounting sees the same granularity as the
    non-blocking pipeline.
    """

    def __init__(self, child: Operator) -> None:
        self.child = child
        self.schema = child.schema

    def execute_batches(self) -> Iterator[list[Row]]:
        buffered = list(self.child.execute_batches())
        yield from buffered

    def execute_columns(self) -> Iterator[ColumnBatch]:
        buffered = list(self.child.execute_columns())
        yield from buffered

    def _describe(self) -> str:
        return "Materialize"

    def _children(self) -> Sequence[Operator]:
        return (self.child,)
