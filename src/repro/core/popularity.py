"""Popularity ranking of result tuples (the conclusion's extension).

The paper's conclusion: "our techniques can be extended to address
other problems, such as ranking query result tuples according to their
popularity."  A PMV already knows which results are hot — they are the
ones that keep being delivered.  :class:`PopularityTracker` counts
deliveries per result tuple (bounded to the most popular ``capacity``
tuples with a space-saving style eviction) and
:class:`RankedPMVExecutor` uses it to return each query's answer with
the most-requested tuples of the tracker's lifetime first, partial
results leading.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.executor import PMVExecutor, PMVQueryResult
from repro.engine.row import Row
from repro.engine.template import Query
from repro.errors import PMVError

__all__ = ["PopularityTracker", "RankedPMVExecutor"]


class PopularityTracker:
    """Bounded per-tuple delivery counts.

    Uses the *space-saving* scheme: when full, a new tuple takes over
    the entry with the minimum count (inheriting that count), so the
    heaviest hitters are retained with bounded memory.
    """

    def __init__(self, capacity: int = 10_000) -> None:
        if capacity < 1:
            raise PMVError("popularity capacity must be >= 1")
        self.capacity = capacity
        self._counts: dict[Row, int] = {}

    def record(self, row: Row, amount: int = 1) -> None:
        """Record ``amount`` deliveries of ``row``."""
        if row in self._counts:
            self._counts[row] += amount
            return
        if len(self._counts) < self.capacity:
            self._counts[row] = amount
            return
        victim = min(self._counts, key=self._counts.__getitem__)
        inherited = self._counts.pop(victim)
        self._counts[row] = inherited + amount

    def record_all(self, rows) -> None:
        for row in rows:
            self.record(row)

    def popularity(self, row: Row) -> int:
        """The (approximate) delivery count of ``row``; 0 if untracked."""
        return self._counts.get(row, 0)

    def top(self, n: int) -> list[tuple[Row, int]]:
        """The ``n`` most popular tuples with their counts."""
        ranked = sorted(self._counts.items(), key=lambda item: -item[1])
        return ranked[:n]

    def __len__(self) -> int:
        return len(self._counts)


@dataclass
class RankedResult:
    """A query answer ordered by lifetime popularity."""

    underlying: PMVQueryResult
    ranked_rows: list[Row] = field(default_factory=list)

    @property
    def had_partial_results(self) -> bool:
        return self.underlying.had_partial_results


class RankedPMVExecutor:
    """Executes template queries and ranks answers by popularity.

    Partial (immediately available) tuples are kept ahead of the
    remainder — the user sees hot results first *and* soonest — with
    popularity ordering applied within each band.
    """

    def __init__(self, executor: PMVExecutor, tracker: PopularityTracker | None = None) -> None:
        self.executor = executor
        self.tracker = tracker or PopularityTracker()

    def execute(self, query: Query) -> RankedResult:
        result = self.executor.execute(query)
        # Rank by popularity *before* recording this delivery, so the
        # ordering reflects history rather than the current query.
        partial = sorted(
            result.partial_rows, key=lambda row: -self.tracker.popularity(row)
        )
        remaining = sorted(
            result.remaining_rows, key=lambda row: -self.tracker.popularity(row)
        )
        self.tracker.record_all(result.all_rows())
        return RankedResult(underlying=result, ranked_rows=partial + remaining)
