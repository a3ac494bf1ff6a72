"""Rule-based planner for ``qt``-form queries.

The planner produces the plan shape Section 2.1 describes: pick a
driving relation whose selection attribute has an index, fetch its
matching tuples by index probes, then index-nested-loop-join the
remaining relations along ``Cjoin``'s equi-join edges, applying every
remaining selection as a residual predicate.  The root projects to the
*expanded* select list ``Ls'`` (Section 3.2) and, for blocking plans,
materializes the full result before the first row is emitted.

Planning is split into two phases so the per-query hot path stays
cheap:

- :func:`compile_plan` does everything that depends only on the
  *template* and the catalog — condition grouping, driver access-path
  selection, the join-order walk — and produces a
  :class:`CompiledPlan`;
- :meth:`CompiledPlan.bind` stamps out an executable :class:`Plan` for
  one bound query by substituting the slot values into the compiled
  skeleton.

:class:`repro.engine.database.Database` caches compiled plans per
(template, blocking, driver) and re-binds them per query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.engine.catalog import Catalog
from repro.engine.heap import HeapRelation
from repro.engine.index import HashIndex, OrderedIndex
from repro.engine.columns import ColumnBatch
from repro.engine.operators import (
    Filter,
    IndexEqualityScan,
    IndexNestedLoopJoin,
    IndexRangeScan,
    Materialize,
    NestedLoopJoin,
    Operator,
    Project,
    SeqScan,
)
from repro.engine.predicate import (
    EqualityDisjunction,
    IntervalDisjunction,
    JoinEquality,
    SelectionCondition,
)
from repro.engine.stats import StatisticsCollector
from repro.engine.template import Query, QueryTemplate, SlotForm
from repro.errors import PlanningError

__all__ = [
    "Plan",
    "CompiledPlan",
    "DriverCandidate",
    "driver_candidates",
    "choose_driver_slot",
    "compile_plan",
]


@dataclass
class Plan:
    """An executable plan: a root operator plus its source query."""

    root: Operator
    query: Query
    blocking: bool

    def execute_column_batches(self) -> Iterator[ColumnBatch]:
        """Yield the result (over ``Ls'``) as column batches —
        the plan's one execution path."""
        return self.root.execute_columns()

    def explain(self) -> str:
        return self.root.explain()


# -- compile-time analysis ------------------------------------------------------


@dataclass(frozen=True)
class DriverCandidate:
    """A slot whose condition a usable index can drive the plan by."""

    slot_index: int
    relation: str
    column: str


@dataclass(frozen=True)
class _PredicateRecipe:
    """How to build one relation's residual tests from a bound query:
    AND the conditions of ``slot_indices`` with the ``fixed`` conditions."""

    slot_indices: tuple[int, ...]
    fixed: tuple[SelectionCondition, ...]

    def build_tests(self, conditions: Sequence[SelectionCondition]):
        """The residual predicate as ``(column, value_test)`` pairs for
        :class:`ColumnBatch` filtering."""
        parts = [conditions[i] for i in self.slot_indices]
        parts.extend(self.fixed)
        return tuple((c.column, c.value_test()) for c in parts)


def _recipes_by_relation(template: QueryTemplate) -> dict[str, _PredicateRecipe]:
    """Group slot indices and fixed conditions by their relation."""
    slot_indices: dict[str, list[int]] = {name: [] for name in template.relations}
    fixed: dict[str, list[SelectionCondition]] = {name: [] for name in template.relations}
    for i, slot in enumerate(template.slots):
        slot_indices[slot.relation].append(i)
    for condition in template.fixed_conditions:
        relation = condition.column.split(".", 1)[0]
        if relation not in fixed:
            raise PlanningError(
                f"fixed condition on unknown relation: {condition.column!r}"
            )
        fixed[relation].append(condition)
    return {
        name: _PredicateRecipe(tuple(slot_indices[name]), tuple(fixed[name]))
        for name in template.relations
    }


def driver_candidates(catalog: Catalog, template: QueryTemplate) -> list[DriverCandidate]:
    """Slots that could drive the plan: their form has a usable index.

    A template-level property — interval slots need an ordered index,
    equality slots any index — so it is computed once per compile.
    """
    candidates: list[DriverCandidate] = []
    for i, slot in enumerate(template.slots):
        need_range = slot.form is SlotForm.INTERVAL
        index = catalog.find_index(slot.relation, slot.column, require_range=need_range)
        if index is not None:
            candidates.append(DriverCandidate(i, slot.relation, slot.column))
    return candidates


def _estimate_driver_rows(
    statistics: StatisticsCollector, relation: str, condition: SelectionCondition
) -> float | None:
    """Estimated rows an index scan on ``condition`` would fetch, or
    ``None`` when no statistics are available for the relation."""
    if not statistics.has_table(relation):
        return None
    table = statistics.table(relation)
    column_stats = table.column(condition.column)
    if isinstance(condition, EqualityDisjunction):
        selectivity = column_stats.disjunction_selectivity(condition.values)
    else:
        selectivity = min(
            sum(column_stats.interval_selectivity(iv) for iv in condition.intervals),
            1.0,
        )
    return selectivity * table.row_count


def choose_driver_slot(
    candidates: Sequence[DriverCandidate],
    query: Query,
    statistics: StatisticsCollector | None = None,
) -> int | None:
    """Pick the slot whose index drives the plan, or ``None`` for a
    sequential scan of the first relation.

    With statistics (the Section 4.2 ``ANALYZE`` equivalent), the
    usable-indexed slot with the *lowest estimated row count* for this
    query's bound values drives; without them, the first usable-indexed
    slot in template order does.
    """
    if not candidates:
        return None
    if statistics is not None:
        estimated: list[tuple[float, int, int]] = []
        for order, candidate in enumerate(candidates):
            condition = query.cselect.conditions[candidate.slot_index]
            rows = _estimate_driver_rows(statistics, candidate.relation, condition)
            if rows is not None:
                estimated.append((rows, order, candidate.slot_index))
        if len(estimated) == len(candidates):
            estimated.sort()
            return estimated[0][2]
    return candidates[0].slot_index


# -- compiled plans -------------------------------------------------------------


@dataclass(frozen=True)
class _EdgeFilterStep:
    """A redundant join edge applied as a residual equality filter."""

    left_col: str
    right_col: str
    label: str


@dataclass(frozen=True)
class _JoinStep:
    """Join one more relation into the pipeline."""

    inner_relation: HeapRelation
    inner_index: HashIndex | OrderedIndex | None  # None -> hash join
    outer_key: str
    inner_key: str  # bare column, used by the hash-join fallback
    recipe: _PredicateRecipe


@dataclass(frozen=True)
class CompiledPlan:
    """A parameterized plan skeleton for one (template, blocking, driver).

    Everything that is a function of the template and the catalog —
    driver access path, join order, predicate recipes, projection —
    is resolved here once; :meth:`bind` substitutes one query's bound
    slot values and returns an executable :class:`Plan`.

    A compiled plan resolves catalog objects (relations, indexes) at
    compile time, so it is only valid for the catalog version it was
    compiled against; the plan cache re-compiles on DDL.
    """

    template: QueryTemplate
    blocking: bool
    catalog_version: int
    driver_slot: int | None
    driver_relation: HeapRelation
    driver_index: HashIndex | OrderedIndex | None
    driver_is_range: bool
    driver_recipe: _PredicateRecipe
    steps: tuple[_EdgeFilterStep | _JoinStep, ...]
    project_names: tuple[str, ...]

    def bind(self, query: Query) -> Plan:
        """Stamp out an executable plan for one bound query."""
        if query.template is not self.template:
            raise PlanningError("query is from a different template")
        conditions = query.cselect.conditions
        root: Operator
        driver_tests = self.driver_recipe.build_tests(conditions)
        if self.driver_slot is None:
            root = SeqScan(self.driver_relation, tests=driver_tests)
        else:
            driver_condition = conditions[self.driver_slot]
            assert self.driver_index is not None
            if self.driver_is_range:
                assert isinstance(driver_condition, IntervalDisjunction)
                root = IndexRangeScan(
                    self.driver_relation,
                    self.driver_index,
                    driver_condition.intervals,
                    tests=driver_tests,
                )
            else:
                assert isinstance(driver_condition, EqualityDisjunction)
                root = IndexEqualityScan(
                    self.driver_relation,
                    self.driver_index,
                    driver_condition.values,
                    tests=driver_tests,
                )
        for step in self.steps:
            if isinstance(step, _EdgeFilterStep):
                root = Filter(
                    root, (step.left_col, step.right_col), label=step.label
                )
                continue
            inner_tests = step.recipe.build_tests(conditions)
            if step.inner_index is not None:
                root = IndexNestedLoopJoin(
                    root,
                    step.inner_relation,
                    step.inner_index,
                    step.outer_key,
                    inner_tests=inner_tests,
                )
            else:
                root = NestedLoopJoin(
                    root,
                    step.inner_relation,
                    step.inner_key,
                    step.outer_key,
                    inner_tests=inner_tests,
                )
        root = Project(root, self.project_names)
        if self.blocking:
            root = Materialize(root)
        return Plan(root=root, query=query, blocking=self.blocking)


def compile_plan(
    catalog: Catalog,
    template: QueryTemplate,
    blocking: bool,
    driver_slot: int | None,
) -> CompiledPlan:
    """Compile the plan skeleton for ``template`` driven by ``driver_slot``.

    ``driver_slot`` is the index of the ``Cselect`` slot whose index
    probes drive the plan (from :func:`choose_driver_slot`), or ``None``
    for a sequential scan of the template's first relation.
    """
    recipes = _recipes_by_relation(template)

    if driver_slot is None:
        driver = template.relations[0]
        driver_index = None
        driver_is_range = False
        driver_recipe = recipes[driver]
    else:
        slot = template.slots[driver_slot]
        driver = slot.relation
        driver_is_range = slot.form is SlotForm.INTERVAL
        driver_index = catalog.find_index(
            driver, slot.column, require_range=driver_is_range
        )
        if driver_index is None:
            raise PlanningError(
                f"slot {slot.column!r} has no usable index to drive the plan"
            )
        base = recipes[driver]
        driver_recipe = _PredicateRecipe(
            tuple(i for i in base.slot_indices if i != driver_slot), base.fixed
        )
    driver_relation = catalog.relation(driver)

    # Join the remaining relations along Cjoin's equi-join edges.
    steps: list[_EdgeFilterStep | _JoinStep] = []
    planned = {driver}
    pending_edges: list[JoinEquality] = list(template.joins)
    while len(planned) < len(template.relations):
        progressed = False
        for edge in list(pending_edges):
            left_in = edge.left_relation in planned
            right_in = edge.right_relation in planned
            if left_in and right_in:
                # Redundant edge: apply as a residual filter.
                pending_edges.remove(edge)
                steps.append(
                    _EdgeFilterStep(
                        edge.qualified_left(), edge.qualified_right(), str(edge)
                    )
                )
                progressed = True
                continue
            if not left_in and not right_in:
                continue
            if left_in:
                outer_key = edge.qualified_left()
                inner_name, inner_col = edge.right_relation, edge.qualified_right()
            else:
                outer_key = edge.qualified_right()
                inner_name, inner_col = edge.left_relation, edge.qualified_left()
            inner_relation = catalog.relation(inner_name)
            inner_index = catalog.find_index(inner_name, inner_col)
            bare_inner = inner_col.split(".", 1)[1] if "." in inner_col else inner_col
            # No join-attribute index: fall back to a hash join over a
            # one-shot scan of the inner relation (inner_index is None).
            steps.append(
                _JoinStep(
                    inner_relation=inner_relation,
                    inner_index=inner_index,
                    outer_key=outer_key,
                    inner_key=bare_inner,
                    recipe=recipes[inner_name],
                )
            )
            planned.add(inner_name)
            pending_edges.remove(edge)
            progressed = True
        if not progressed:
            missing = set(template.relations) - planned
            raise PlanningError(
                f"join graph of {template.name!r} is disconnected; "
                f"cannot reach {sorted(missing)}"
            )
    # Any leftover edges connect already-planned relations.
    for edge in pending_edges:
        steps.append(
            _EdgeFilterStep(edge.qualified_left(), edge.qualified_right(), str(edge))
        )

    return CompiledPlan(
        template=template,
        blocking=blocking,
        catalog_version=catalog.version,
        driver_slot=driver_slot,
        driver_relation=driver_relation,
        driver_index=driver_index,
        driver_is_range=driver_is_range,
        driver_recipe=driver_recipe,
        steps=tuple(steps),
        project_names=template.expanded_select_list(),
    )
