"""The temporary in-memory structure ``DS`` (Sections 3 and 3.3).

``DS`` records the partial result tuples already delivered to the user
in Operation O2 so that Operation O3 returns each result tuple exactly
once.  Query results are multisets — the paper is explicit that a
delivered tuple must be *removed* from DS when matched, otherwise a
later duplicate would wrongly be suppressed — so DS is a counting
multiset, not a set.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from repro.engine.row import Row
from repro.errors import PMVError

__all__ = ["DuplicateSuppressor"]


class DuplicateSuppressor:
    """A counting multiset of rows with O(1) add / consume.

    Internally keyed by each row's *value tuple* rather than the
    :class:`Row` object: row equality and hashing are values-only
    anyway, and tuple keys hash and compare at C speed — this matters
    because O2 adds and O3 consumes every delivered tuple.

    The executor talks to DS in value tuples directly
    (:meth:`add_batch` / :meth:`consume_batch`), so no :class:`Row`
    objects exist on its path; the count store is a
    :class:`collections.Counter` so bulk adds run in C.
    """

    def __init__(self) -> None:
        self._counts: Counter[tuple] = Counter()
        self._size = 0

    def add(self, row: Row) -> None:
        """Record that ``row`` was delivered to the user in O2."""
        values = row.values
        self._counts[values] = self._counts.get(values, 0) + 1
        self._size += 1

    def add_batch(self, values: "Sequence[tuple] | Iterable[tuple]") -> None:
        """Record a batch of delivered *value tuples* (O2).

        ``Counter.update`` runs the counting loop in C, with no ``Row``
        objects involved.
        """
        if not hasattr(values, "__len__"):
            values = list(values)
        self._counts.update(values)
        self._size += len(values)

    def consume_batch(self, values: "Sequence[tuple]") -> list[tuple]:
        """Consume one recorded occurrence of each value tuple; return
        the tuples that were *not* recorded (O3's bulk dedup).

        Equivalent to ``[t for t in values if not consumed(t)]`` with
        the loop run inside one call.  Order is preserved.  The
        returned list is always a fresh object, never the caller's —
        aliasing the input would let downstream mutation corrupt the
        operator's batch.
        """
        counts = self._counts
        if not counts:
            return list(values)
        fresh: list[tuple] = []
        append = fresh.append
        get = counts.get
        consumed = 0
        for t in values:
            count = get(t, 0)
            if count == 0:
                append(t)
            elif count == 1:
                del counts[t]
                consumed += 1
            else:
                counts[t] = count - 1
                consumed += 1
        self._size -= consumed
        return fresh

    def consume(self, row: Row) -> bool:
        """If ``row`` is recorded, remove one occurrence and return True.

        The per-row form of :meth:`consume_batch`: a True return means
        the user already has this occurrence and it must not be re-sent.
        """
        values = row.values
        count = self._counts.get(values, 0)
        if count == 0:
            return False
        if count == 1:
            del self._counts[values]
        else:
            self._counts[values] = count - 1
        self._size -= 1
        return True

    def contains(self, row: Row) -> bool:
        return self._counts.get(row.values, 0) > 0

    def __len__(self) -> int:
        return self._size

    def assert_empty(self) -> None:
        """Paper invariant: after O3 processes every result tuple, DS
        must be empty — every O2-delivered tuple was re-derived by the
        full execution.  A leftover means the PMV served a stale tuple.
        """
        if self._size:
            sample = next(iter(self._counts))
            raise PMVError(
                f"DS not empty after O3: {self._size} tuple(s) left, e.g. {sample!r}; "
                "the PMV delivered results full execution did not produce"
            )
