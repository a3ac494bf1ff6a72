"""Predicate AST for the paper's query-template form.

Section 2.1 of the paper restricts selection conditions to a
conjunction ``Cselect = C1 ∧ … ∧ Cm`` where each ``Ci`` is a
disjunction over a single attribute in one of two shapes:

- *equality form* ``∨ (R.a = v_r)`` — :class:`EqualityDisjunction`;
- *interval form* ``∨ (v_r < R.a < w_r)`` with pairwise-disjoint
  intervals — :class:`IntervalDisjunction`.

Intervals may be open/closed and bounded/unbounded
(:class:`Interval`).  ``Cjoin`` combines equi-join conditions
(:class:`JoinEquality`) with parameterless single-relation conditions,
which we model as one-value equality or one-interval disjunctions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence, Union

from repro.engine.datatypes import Infinity, MINUS_INFINITY, PLUS_INFINITY
from repro.engine.row import Row
from repro.errors import ConditionError

__all__ = [
    "Interval",
    "EqualityDisjunction",
    "IntervalDisjunction",
    "SelectionCondition",
    "SelectionConjunction",
    "JoinEquality",
]


@dataclass(frozen=True)
class Interval:
    """An interval ``low .. high`` with configurable endpoint closure.

    Endpoints may be the :data:`MINUS_INFINITY` / :data:`PLUS_INFINITY`
    sentinels for unbounded intervals.  The paper writes all intervals
    as open bounded ones "with the understanding that it can be closed
    and/or unbounded if necessary"; we carry the closure bits
    explicitly.
    """

    low: Any
    high: Any
    low_inclusive: bool = False
    high_inclusive: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.low, Infinity) and self.low.sign > 0:
            raise ConditionError("interval low bound cannot be +inf")
        if isinstance(self.high, Infinity) and self.high.sign < 0:
            raise ConditionError("interval high bound cannot be -inf")
        # Closure at an infinite endpoint is meaningless; normalize it
        # to open so structurally-equal intervals compare equal.
        if isinstance(self.low, Infinity) and self.low_inclusive:
            object.__setattr__(self, "low_inclusive", False)
        if isinstance(self.high, Infinity) and self.high_inclusive:
            object.__setattr__(self, "high_inclusive", False)
        if not isinstance(self.low, Infinity) and not isinstance(self.high, Infinity):
            if self.low > self.high:
                raise ConditionError(f"empty interval: {self}")
            if self.low == self.high and not (self.low_inclusive and self.high_inclusive):
                raise ConditionError(f"empty interval: {self}")

    # -- membership ------------------------------------------------------------

    def contains_value(self, value: Any) -> bool:
        """Whether ``value`` lies inside this interval."""
        if value is None:
            return False
        if isinstance(self.low, Infinity):
            above_low = True
        else:
            above_low = value >= self.low if self.low_inclusive else value > self.low
        if not above_low:
            return False
        if isinstance(self.high, Infinity):
            return True
        return value <= self.high if self.high_inclusive else value < self.high

    def contains_interval(self, other: "Interval") -> bool:
        """Whether ``other`` is entirely inside ``self``."""
        if isinstance(self.low, Infinity):
            low_ok = True
        elif isinstance(other.low, Infinity):
            low_ok = False
        elif other.low > self.low:
            low_ok = True
        elif other.low == self.low:
            low_ok = self.low_inclusive or not other.low_inclusive
        else:
            low_ok = False
        if not low_ok:
            return False
        if isinstance(self.high, Infinity):
            return True
        if isinstance(other.high, Infinity):
            return False
        if other.high < self.high:
            return True
        if other.high == self.high:
            return self.high_inclusive or not other.high_inclusive
        return False

    def overlaps(self, other: "Interval") -> bool:
        """Whether the two intervals share at least one point."""
        # self entirely below other?
        if not isinstance(self.high, Infinity) and not isinstance(other.low, Infinity):
            if self.high < other.low:
                return False
            if self.high == other.low and not (self.high_inclusive and other.low_inclusive):
                return False
        # self entirely above other?
        if not isinstance(self.low, Infinity) and not isinstance(other.high, Infinity):
            if self.low > other.high:
                return False
            if self.low == other.high and not (self.low_inclusive and other.high_inclusive):
                return False
        return True

    def intersect(self, other: "Interval") -> "Interval | None":
        """The overlap of two intervals, or ``None`` when disjoint."""
        if not self.overlaps(other):
            return None
        if isinstance(self.low, Infinity):
            low, low_inc = other.low, other.low_inclusive
        elif isinstance(other.low, Infinity):
            low, low_inc = self.low, self.low_inclusive
        elif self.low > other.low:
            low, low_inc = self.low, self.low_inclusive
        elif other.low > self.low:
            low, low_inc = other.low, other.low_inclusive
        else:
            low, low_inc = self.low, self.low_inclusive and other.low_inclusive
        if isinstance(self.high, Infinity):
            high, high_inc = other.high, other.high_inclusive
        elif isinstance(other.high, Infinity):
            high, high_inc = self.high, self.high_inclusive
        elif self.high < other.high:
            high, high_inc = self.high, self.high_inclusive
        elif other.high < self.high:
            high, high_inc = other.high, other.high_inclusive
        else:
            high, high_inc = self.high, self.high_inclusive and other.high_inclusive
        return Interval(low, high, low_inc, high_inc)

    @staticmethod
    def everything() -> "Interval":
        """The unbounded interval (-inf, +inf)."""
        return Interval(MINUS_INFINITY, PLUS_INFINITY)

    def __str__(self) -> str:
        lo = "[" if self.low_inclusive else "("
        hi = "]" if self.high_inclusive else ")"
        return f"{lo}{self.low!r}, {self.high!r}{hi}"


def _check_disjoint(intervals: Sequence[Interval]) -> None:
    # Disjunction fanouts (the paper's u_i) are small, so a pairwise
    # check is clearer than sorting across mixed/unbounded endpoints.
    for i, a in enumerate(intervals):
        for b in intervals[i + 1 :]:
            if a.overlaps(b):
                raise ConditionError(f"intervals overlap: {a} and {b}")


@dataclass(frozen=True)
class EqualityDisjunction:
    """``(column = v1) or … or (column = vu)`` over one attribute."""

    column: str
    values: tuple[Any, ...]

    def __init__(self, column: str, values: Sequence[Any]) -> None:
        vals = tuple(values)
        if not vals:
            raise ConditionError(f"equality disjunction on {column!r} has no values")
        if len(set(vals)) != len(vals):
            raise ConditionError(f"duplicate values in equality disjunction on {column!r}")
        object.__setattr__(self, "column", column)
        object.__setattr__(self, "values", vals)

    @property
    def fanout(self) -> int:
        """The paper's u_i: number of disjuncts."""
        return len(self.values)

    def matches(self, row: Row) -> bool:
        return row[self.column] in self.values

    def value_test(self) -> Callable[[Any], bool]:
        """A compiled bare-value membership test for vectorized
        evaluation (a frozenset ``__contains__`` bound method)."""
        return frozenset(self.values).__contains__

    def __str__(self) -> str:
        return " or ".join(f"{self.column}={v!r}" for v in self.values)


@dataclass(frozen=True)
class IntervalDisjunction:
    """``(v1 < column < w1) or … or (vu < column < wu)`` with disjoint
    intervals over one attribute."""

    column: str
    intervals: tuple[Interval, ...]

    def __init__(self, column: str, intervals: Sequence[Interval]) -> None:
        ivs = tuple(intervals)
        if not ivs:
            raise ConditionError(f"interval disjunction on {column!r} has no intervals")
        _check_disjoint(ivs)
        object.__setattr__(self, "column", column)
        object.__setattr__(self, "intervals", ivs)

    @property
    def fanout(self) -> int:
        return len(self.intervals)

    def matches(self, row: Row) -> bool:
        value = row[self.column]
        return any(iv.contains_value(value) for iv in self.intervals)

    def value_test(self) -> Callable[[Any], bool]:
        """A compiled bare-value membership test for vectorized
        evaluation.  The common single-interval case binds the
        interval's ``contains_value`` directly."""
        if len(self.intervals) == 1:
            return self.intervals[0].contains_value
        intervals = self.intervals

        def test(value: Any) -> bool:
            return any(iv.contains_value(value) for iv in intervals)

        return test

    def __str__(self) -> str:
        return " or ".join(f"{self.column} in {iv}" for iv in self.intervals)


SelectionCondition = Union[EqualityDisjunction, IntervalDisjunction]
"""One ``Ci`` of the paper's ``Cselect`` conjunction."""


@dataclass(frozen=True)
class SelectionConjunction:
    """``Cselect = C1 ∧ … ∧ Cm``.

    The order of conditions is significant: it fixes the dimension
    order of condition parts ``(d1, …, dm)`` throughout the PMV layer.
    """

    conditions: tuple[SelectionCondition, ...]

    def __init__(self, conditions: Sequence[SelectionCondition]) -> None:
        conds = tuple(conditions)
        columns = [c.column for c in conds]
        if len(set(columns)) != len(columns):
            raise ConditionError("each Cselect attribute may appear in only one Ci")
        object.__setattr__(self, "conditions", conds)

    def columns(self) -> tuple[str, ...]:
        return tuple(c.column for c in self.conditions)

    def matches(self, row: Row) -> bool:
        return all(c.matches(row) for c in self.conditions)

    def combination_factor(self) -> int:
        """The paper's h = ∏ u_i for queries whose every condition part
        is basic (Section 4.2's 'combination factor')."""
        h = 1
        for c in self.conditions:
            h *= c.fanout
        return h

    def __iter__(self) -> Iterator[SelectionCondition]:
        return iter(self.conditions)

    def __str__(self) -> str:
        return " and ".join(f"({c})" for c in self.conditions)


@dataclass(frozen=True)
class JoinEquality:
    """An equi-join term ``left_column = right_column`` inside Cjoin."""

    left_relation: str
    left_column: str
    right_relation: str
    right_column: str

    def matches(self, left: Row, right: Row) -> bool:
        return left[self.left_column] == right[self.right_column]

    def qualified_left(self) -> str:
        return f"{self.left_relation}.{self.left_column}"

    def qualified_right(self) -> str:
        return f"{self.right_relation}.{self.right_column}"

    def __str__(self) -> str:
        return f"{self.qualified_left()}={self.qualified_right()}"
