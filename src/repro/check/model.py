"""The reference model: a ``qt`` query's true answer from plain rows.

Every truth a drill or checker compares against comes from here.  The
model shares no code with the engine's query path: it reads each
relation's live rows once, as plain ``{"relation.column": value}``
dicts, and evaluates the template by its definition — a nested-loop
join along ``Cjoin``'s edges, every ``Cselect`` and fixed condition by
its own comparison, a projection to ``Ls'``.  It calls no planner,
operator, index probe or condition method, so a bug there cannot hide
by appearing on both sides of a comparison (``tests/check`` holds the
import-boundary test that keeps it that way).

The rows come from the heap (``scan_rows``), either of the database
under test or of a replay of its log: log records address rows
physically, so the state itself is rebuilt by a heap replay and only
the *answer* is computed here.

Semantics, by definition rather than by mirror:

- an equality ``Ci`` holds when the value is one of its values;
- an interval ``Ci`` holds when the value lies inside one of its
  intervals, bound by bound; ``None`` is inside no interval;
- a join edge holds when both sides are equal and not ``None`` (SQL:
  ``NULL`` equals nothing).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable, Mapping, Sequence

from repro.engine.datatypes import Infinity

__all__ = ["evaluate", "tables_of", "true_answer"]

Tables = Mapping[str, Sequence[dict[str, Any]]]
"""Relation name -> its rows, each a ``{"relation.column": value}`` dict."""


def tables_of(database, relations: Iterable[str]) -> dict[str, list[dict[str, Any]]]:
    """The live rows of ``relations`` as plain qualified-name dicts."""
    tables = {}
    for name in relations:
        relation = database.catalog.relation(name)
        columns = [f"{name}.{column}" for column in relation.schema.names()]
        tables[name] = [
            dict(zip(columns, row.values)) for row in relation.scan_rows()
        ]
    return tables


def _inside(value: Any, interval) -> bool:
    low, high = interval.low, interval.high
    if not isinstance(low, Infinity):
        if value < low or (value == low and not interval.low_inclusive):
            return False
    if not isinstance(high, Infinity):
        if value > high or (value == high and not interval.high_inclusive):
            return False
    return True


def _holds(condition, value: Any) -> bool:
    """Whether ``value`` satisfies one selection condition."""
    values = getattr(condition, "values", None)
    if values is not None:
        return value in values
    return value is not None and any(_inside(value, iv) for iv in condition.intervals)


def _joined(left: Any, right: Any) -> bool:
    return left is not None and left == right


def evaluate(tables: Tables, template, conditions: Sequence = ()) -> Counter:
    """The multiset of ``Ls'`` tuples ``template`` yields over ``tables``
    under the bound ``conditions`` (none: the template's full result,
    the containing materialized view)."""
    tests = [*template.fixed_conditions, *conditions]
    bindings: list[dict[str, Any]] = [{}]
    bound: set[str] = set()
    for name in template.relations:
        own = [c for c in tests if c.column.split(".", 1)[0] == name]
        rows = [
            row for row in tables[name] if all(_holds(c, row[c.column]) for c in own)
        ]
        bound.add(name)
        edges = [
            (edge.qualified_left(), edge.qualified_right())
            for edge in template.joins
            if name in (edge.left_relation, edge.right_relation)
            and {edge.left_relation, edge.right_relation} <= bound
        ]
        bindings = [
            binding
            for binding in ({**left, **row} for left in bindings for row in rows)
            if all(_joined(binding[a], binding[b]) for a, b in edges)
        ]
    names = template.expanded_select_list()
    return Counter(tuple(binding[name] for name in names) for binding in bindings)


def true_answer(database, query, width: int | None = None) -> Counter:
    """The true answer to ``query`` over ``database``'s current rows, as
    a multiset of ``Ls'`` tuples cut to the first ``width`` columns."""
    template = query.template
    tables = tables_of(database, template.relations)
    full = evaluate(tables, template, query.cselect.conditions)
    if width is None:
        return full
    cut: Counter = Counter()
    for values, count in full.items():
        cut[values[:width]] += count
    return cut
