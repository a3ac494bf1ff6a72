"""Table and column statistics for the planner.

The paper runs "the PostgreSQL statistics collection program on all the
relations" before its experiments (Section 4.2); this module is our
equivalent of ``ANALYZE``.  :class:`StatisticsCollector` scans a
relation once and records, per column:

- distinct-value count and null fraction;
- min/max (for orderable columns);
- a small equi-depth histogram plus exact counts for the most common
  values (PostgreSQL-style MCVs).

The planner uses :meth:`ColumnStatistics.equality_selectivity` and
:meth:`ColumnStatistics.interval_selectivity` to pick the most
selective indexed slot as the driving access path, instead of the first
one in template order.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.engine.datatypes import Infinity
from repro.engine.heap import HeapRelation
from repro.engine.predicate import Interval
from repro.errors import EngineError

__all__ = ["ColumnStatistics", "TableStatistics", "StatisticsCollector"]


@dataclass
class ColumnStatistics:
    """Distribution summary of one column."""

    column: str
    row_count: int
    null_count: int
    distinct_count: int
    min_value: Any = None
    max_value: Any = None
    most_common: dict[Any, int] = field(default_factory=dict)
    histogram_bounds: list[Any] = field(default_factory=list)

    @property
    def null_fraction(self) -> float:
        return self.null_count / self.row_count if self.row_count else 0.0

    def equality_selectivity(self, value: Any) -> float:
        """Estimated fraction of rows with ``column = value``."""
        if self.row_count == 0:
            return 0.0
        if value in self.most_common:
            return self.most_common[value] / self.row_count
        # Uniformity over the non-MCV remainder.
        mcv_rows = sum(self.most_common.values())
        rest_rows = max(self.row_count - self.null_count - mcv_rows, 0)
        rest_distinct = max(self.distinct_count - len(self.most_common), 1)
        return (rest_rows / rest_distinct) / self.row_count if rest_rows else 0.0

    def interval_selectivity(self, interval: Interval) -> float:
        """Estimated fraction of rows with ``column`` in ``interval``.

        Uses the equi-depth histogram: each bucket holds ~1/(buckets)
        of the non-null rows, so the covered-bucket fraction estimates
        the selectivity.
        """
        if self.row_count == 0 or len(self.histogram_bounds) < 2:
            return 1.0
        bounds = self.histogram_bounds
        buckets = len(bounds) - 1
        low = bounds[0] if isinstance(interval.low, Infinity) else interval.low
        high = bounds[-1] if isinstance(interval.high, Infinity) else interval.high
        if high < bounds[0] or low > bounds[-1]:
            return 0.0
        lo_idx = bisect.bisect_left(bounds, low)
        hi_idx = bisect.bisect_right(bounds, high)
        covered = max(hi_idx - lo_idx, 1)  # partial buckets count as one
        fraction = min(covered / buckets, 1.0)
        return fraction * (1.0 - self.null_fraction)

    def disjunction_selectivity(self, values: Sequence[Any]) -> float:
        """Selectivity of ``column IN values`` (capped at 1)."""
        return min(sum(self.equality_selectivity(v) for v in values), 1.0)


@dataclass
class TableStatistics:
    """Statistics for one relation."""

    relation: str
    row_count: int
    columns: dict[str, ColumnStatistics] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStatistics:
        bare = name.split(".", 1)[1] if "." in name else name
        try:
            return self.columns[bare]
        except KeyError:
            raise EngineError(
                f"no statistics for column {name!r} of {self.relation!r}"
            ) from None


class StatisticsCollector:
    """Collects and stores per-relation statistics (our ``ANALYZE``)."""

    def __init__(self, mcv_count: int = 10, histogram_buckets: int = 20) -> None:
        if mcv_count < 0 or histogram_buckets < 2:
            raise EngineError("mcv_count >= 0 and histogram_buckets >= 2 required")
        self.mcv_count = mcv_count
        self.histogram_buckets = histogram_buckets
        self._tables: dict[str, TableStatistics] = {}

    # -- collection --------------------------------------------------------------

    def analyze(self, relation: HeapRelation) -> TableStatistics:
        """Scan ``relation`` once and (re)build its statistics."""
        names = relation.schema.names()
        counters: dict[str, Counter] = {name: Counter() for name in names}
        nulls: dict[str, int] = {name: 0 for name in names}
        row_count = 0
        for row in relation.scan_rows():
            row_count += 1
            for name, value in zip(names, row.values):
                if value is None:
                    nulls[name] += 1
                else:
                    counters[name][value] += 1
        table = TableStatistics(relation=relation.name, row_count=row_count)
        for name in names:
            counter = counters[name]
            stats = ColumnStatistics(
                column=name,
                row_count=row_count,
                null_count=nulls[name],
                distinct_count=len(counter),
            )
            if counter:
                ordered = sorted(counter)
                stats.min_value = ordered[0]
                stats.max_value = ordered[-1]
                stats.most_common = dict(counter.most_common(self.mcv_count))
                stats.histogram_bounds = self._equi_depth_bounds(counter, ordered)
            table.columns[name] = stats
        self._tables[relation.name] = table
        return table

    def _equi_depth_bounds(self, counter: Counter, ordered: list[Any]) -> list[Any]:
        """Bucket bounds such that each bucket holds ~equal row mass."""
        total = sum(counter.values())
        if total == 0:
            return []
        target = total / self.histogram_buckets
        bounds = [ordered[0]]
        mass = 0.0
        for value in ordered:
            mass += counter[value]
            if mass >= target and value > bounds[-1]:
                bounds.append(value)
                mass = 0.0
        if ordered[-1] > bounds[-1]:
            bounds.append(ordered[-1])
        return bounds

    # -- lookup -------------------------------------------------------------------

    def table(self, relation_name: str) -> TableStatistics:
        try:
            return self._tables[relation_name]
        except KeyError:
            raise EngineError(
                f"relation {relation_name!r} has not been analyzed"
            ) from None

    def has_table(self, relation_name: str) -> bool:
        return relation_name in self._tables
