"""The partial materialized view data structure (Section 3.2).

A :class:`PartialMaterializedView` holds, for each resident basic
condition part, up to ``F`` result tuples (``ats`` rows carrying the
expanded select list ``Ls'``).  The bcp itself is "conceptual": it is
not stored with each tuple but recovered from the tuple's attribute
values when needed (:meth:`PartialMaterializedView.key_of_row`).

The entry dictionary keyed by the compact bcp key *is* the paper's
index ``I`` on bcp (a multi-attribute hash index when m > 1).  Which
bcps are resident is decided by a pluggable replacement policy — CLOCK
by default, the simplified 2Q as the better alternative of Section 3.5.

Optional *auxiliary indexes* over chosen tuple attributes support the
maintenance optimization referenced at the end of Section 3.4: deletes
and updates to base relations can locate affected cached tuples by an
in-memory probe instead of computing the delta join.
"""

from __future__ import annotations

import math
import threading
from collections import Counter
from typing import Any, Callable, Iterator, Sequence

from repro.core.condition import BcpKey
from repro.core.discretize import Discretization
from repro.core.metrics import PMVMetrics
from repro.core.replacement import ReferenceResult, ReplacementPolicy, make_policy
from repro.engine.row import Row
from repro.engine.template import QueryTemplate, SlotForm
from repro.errors import ViewCapacityError, ViewDefinitionError

__all__ = ["PartialMaterializedView", "entries_for_budget"]

KEY_SIZE_FRACTION = 0.04
"""Paper assumption (Section 4.1): storing a bcp costs 4% of storing
its F result tuples."""

NOMINAL_TUPLE_BYTES = 50
"""The paper's example average tuple size At (Section 3.2)."""


class _Entry:
    """One resident bcp's cached result tuples: an immutable snapshot.

    ``values`` is a tuple of plain value tuples and ``bytes`` their
    storage footprint, so eviction subtracts one number.  A refill, a
    maintenance removal and an admission each install a new entry, so
    a reader settles O3 against exactly the snapshot O2 delivered
    (DESIGN.md §6).  The lazy caches belong to the snapshot: its Rows,
    reused on every later hit, and its frozenset, whose stored hashes
    the ledger's set merges reuse.
    """

    __slots__ = ("values", "bytes", "_rows", "_value_set")

    def __init__(self, values: tuple = (), size: int = 0) -> None:
        self.values: tuple[tuple, ...] = values
        self.bytes = size
        self._rows: tuple[Row, ...] | None = None
        self._value_set: frozenset | None = None

    def rows(self, schema) -> tuple[Row, ...]:
        """The snapshot's tuples as :class:`Row` objects over ``schema``."""
        rows = self._rows
        if rows is None:
            self._rows = rows = tuple([Row(values, schema) for values in self.values])
        return rows

    def value_set(self) -> frozenset:
        """The snapshot's tuples as a frozenset (duplicates collapse)."""
        value_set = self._value_set
        if value_set is None:
            self._value_set = value_set = frozenset(self.values)
        return value_set


def entries_for_budget(
    upper_bound_bytes: int,
    tuples_per_entry: int,
    avg_tuple_bytes: int,
    key_fraction: float = KEY_SIZE_FRACTION,
    strict: bool = True,
) -> int:
    """Max entry count L for a storage budget UB (Section 3.2).

    The paper bounds ``UB >= L × F × At``; with the bcp key costing
    ``key_fraction`` of an entry's tuples, each entry costs
    ``(1 + key_fraction) × F × At`` bytes.

    ``strict=True`` (the constructor-time default) raises
    :class:`ViewCapacityError` when the budget holds no entry — a PMV
    that can never cache anything is a configuration mistake.  Runtime
    callers that *shrink* a live budget (the QoS governor) pass
    ``strict=False`` and get 0: an empty-but-alive PMV degrades
    gracefully instead of erroring mid-query.
    """
    if upper_bound_bytes <= 0 or tuples_per_entry <= 0 or avg_tuple_bytes <= 0:
        raise ViewCapacityError("budget, F, and At must all be positive")
    per_entry = (1.0 + key_fraction) * tuples_per_entry * avg_tuple_bytes
    entries = int(math.floor(upper_bound_bytes / per_entry))
    if entries < 1:
        if strict:
            raise ViewCapacityError(
                f"budget {upper_bound_bytes}B holds no entry of "
                f"{per_entry:.0f}B; raise UB or lower F"
            )
        return 0
    return entries


class PartialMaterializedView:
    """A bounded cache of hot query results for one template.

    Parameters
    ----------
    template:
        The ``qt``-form template this PMV serves.
    discretization:
        Basic intervals for the template's interval-form slots.
    tuples_per_entry:
        The paper's ``F``: at most this many result tuples are stored
        per basic condition part.
    max_entries:
        The paper's ``L`` (CLOCK) / ``N`` (2Q): how many bcps may be
        resident.  Derive it from a byte budget with
        :func:`entries_for_budget`.
    policy:
        A :class:`ReplacementPolicy` instance or a policy name
        (``"clock"``, ``"2q"``, ``"lru"``, ``"fifo"``).
    aux_index_columns:
        Tuple attributes to maintain auxiliary indexes on (for
        delta-join-free maintenance).
    upper_bound_bytes:
        The paper's UB: a hard byte budget for the view.  When set,
        entries are shed (policy's choice of victim) whenever the
        accounted size exceeds it — in addition to the ``max_entries``
        count bound.
    """

    def __init__(
        self,
        template: QueryTemplate,
        discretization: Discretization,
        tuples_per_entry: int,
        max_entries: int,
        policy: ReplacementPolicy | str = "clock",
        aux_index_columns: Sequence[str] = (),
        upper_bound_bytes: int | None = None,
    ) -> None:
        if discretization.template is not template:
            raise ViewDefinitionError("discretization belongs to a different template")
        if tuples_per_entry < 1:
            raise ViewCapacityError("F (tuples_per_entry) must be >= 1")
        self.template = template
        self.discretization = discretization
        self.tuples_per_entry = tuples_per_entry
        if isinstance(policy, str):
            policy = make_policy(policy, max_entries)
        elif policy.capacity != max_entries:
            raise ViewCapacityError(
                f"policy capacity {policy.capacity} != max_entries {max_entries}"
            )
        self.policy = policy
        self.max_entries = max_entries
        if upper_bound_bytes is not None and upper_bound_bytes < 1:
            raise ViewCapacityError("upper_bound_bytes must be positive")
        self.upper_bound_bytes = upper_bound_bytes
        # The operator-configured UB, untouched by runtime re-budgeting:
        # set_upper_bound moves upper_bound_bytes (the live budget), but
        # failover promotion must restore *this* value before serving.
        self.configured_upper_bound_bytes = upper_bound_bytes
        self.name = f"pmv_{template.name}"
        # Async (CDC) maintenance state — repro.cdc flips the flag and
        # owns the watermark.  ``applied_lsn`` is the newest feed LSN
        # whose delta is reflected here; an eagerly-maintained view is
        # always fresh and keeps the flag False (DESIGN.md §13).
        self.async_maintenance = False
        self.applied_lsn = 0
        self.metrics = PMVMetrics()
        # Structural latch: replacement-policy state and the entry dict
        # are not thread-safe on their own, and O2 probes run outside
        # the database's statement latch.  Re-entrant because clear()
        # nests discard_entry() and refill() nests _enforce_budget().
        # Lock-ordering rule: nothing is awaited while holding it.
        self.latch = threading.RLock()
        self._entries: dict[BcpKey, _Entry] = {}
        self.current_bytes = 0
        self._stored_tuples = 0
        # Captured from the first stored tuple's schema: Row
        # materialization target, per-column byte sizers, and aux-index
        # column positions (every result tuple shares the expanded
        # select list ``Ls'``, so one capture covers the view's life).
        self._row_schema = None
        self._sizers: tuple | None = None
        self._aux_positions: tuple[tuple[str, int], ...] = ()
        # Nominal per-entry key charge: 4% of F tuples at the paper's
        # example At of 50 bytes.  Fixed at construction so admission
        # and eviction charge symmetrically.
        self._key_cost = max(
            1, int(KEY_SIZE_FRACTION * tuples_per_entry * NOMINAL_TUPLE_BYTES)
        )
        expanded = template.expanded_select_list()
        for column in aux_index_columns:
            if column not in expanded:
                raise ViewDefinitionError(
                    f"aux index column {column!r} is not in the expanded select list"
                )
        self._aux_columns = tuple(aux_index_columns)
        # column -> value -> {bcp key: row count}
        self._aux: dict[str, dict[Any, dict[BcpKey, int]]] = {
            column: {} for column in self._aux_columns
        }

    # -- bcp recovery -------------------------------------------------------------

    def key_of_row(self, row: Row) -> BcpKey:
        """Compact bcp key of the tuple ``row`` belongs to, recovered
        from its ``Cselect`` attribute values."""
        key: list[Any] = []
        for slot in self.template.slots:
            value = row[slot.column]
            if slot.form is SlotForm.INTERVAL:
                key.append(self.discretization.grid(slot.column).id_for_value(value))
            else:
                key.append(value)
        return tuple(key)

    def values_key_extractor(self, schema) -> "Callable[[tuple], BcpKey]":
        """Precompile :meth:`key_of_row` against a fixed row schema,
        for bare value tuples.

        Column positions and grid lookups are resolved once; the
        returned closure maps a value tuple to its bcp key with plain
        tuple indexing.  Use when many tuples share one schema — every
        output tuple of one plan — where per-row name resolution is
        pure overhead.
        """
        steps = []
        for slot in self.template.slots:
            position = schema.position(slot.column)
            if slot.form is SlotForm.INTERVAL:
                steps.append(
                    (position, self.discretization.grid(slot.column).id_for_value)
                )
            else:
                steps.append((position, None))
        frozen = tuple(steps)

        def extract(values: tuple) -> BcpKey:
            return tuple(
                values[position] if id_of is None else id_of(values[position])
                for position, id_of in frozen
            )

        return extract

    # -- residency / replacement ----------------------------------------------------

    def reference(self, key: BcpKey) -> ReferenceResult:
        """Record one appearance of a bcp (Operations O1/O2).

        Admission creates an (initially empty) entry; evictions drop
        the victims' cached tuples.
        """
        with self.latch:
            result = self.policy.reference(key)
            if result.resident_before and not result.evicted:
                # Hit fast path: a resident bcp already has its entry and
                # (for every shipped policy) a hit never evicts.
                return result
            for victim in result.evicted:
                self._drop_entry(victim)
                self.metrics.entries_evicted += 1
            if result.admitted and key not in self._entries:
                self._entries[key] = _Entry()
                self.current_bytes += self._key_cost
            return result

    def lookup(self, key: BcpKey) -> list[Row] | None:
        """Cached tuples of a resident bcp, or ``None`` on a miss.

        This is the probe of the paper's index ``I`` in Operation O2.
        Returns a copy so callers cannot mutate the entry.
        """
        entry = self._entries.get(key)
        return list(entry.rows(self._row_schema)) if entry is not None else None

    def snapshot(self, key: BcpKey) -> _Entry | None:
        """A resident bcp's entry as it is now, or ``None`` (O2's probe).
        No entry changes in place, so it keeps what was probed."""
        return self._entries.get(key)

    # -- tuple storage -----------------------------------------------------------------

    def refill(self, key: BcpKey, tuples: Sequence[tuple], schema) -> int:
        """Operation O3's free refill of one resident bcp: store, in
        order and until the entry holds ``F``, the value tuples the
        entry does not already hold, counted as a multiset.  The entry
        ends as the union of itself and ``tuples``, so two readers
        that offer the same tuples store each once.  ``schema``
        describes the tuples' columns.  Returns how many were stored.
        """
        with self.latch:
            entry = self._entries.get(key)
            if entry is None:
                return 0
            held = entry.values
            room = self.tuples_per_entry - len(held)
            if room <= 0:
                self.metrics.tuples_rejected_full += len(tuples)
                return 0
            if held:
                unmatched = Counter(held)
                new = []
                for values in tuples:
                    if unmatched[values]:
                        unmatched[values] -= 1
                    else:
                        new.append(values)
            else:
                new = list(tuples)
            if len(new) > room:
                self.metrics.tuples_rejected_full += len(new) - room
                del new[room:]
            if not new:
                return 0
            if self._row_schema is None:
                self._capture_schema(schema)
            size = 0
            for values in new:
                size += self._values_size(values)
                self._aux_add(key, values)
            self._entries[key] = _Entry(held + tuple(new), entry.bytes + size)
            self.current_bytes += size
            self._stored_tuples += len(new)
            self.metrics.tuples_cached += len(new)
            self._enforce_budget()
            return len(new)

    def remove_tuple(self, row: Row) -> bool:
        """Remove one occurrence of ``row`` (maintenance path).

        The owning bcp is recovered from the tuple's attributes; True
        if a cached occurrence was removed.
        """
        key = self.key_of_row(row)
        with self.latch:
            entry = self._entries.get(key)
            if entry is None:
                return False
            held = entry.values
            try:
                i = held.index(row.values)
            except ValueError:
                return False
            size = row.byte_size()
            self._entries[key] = _Entry(held[:i] + held[i + 1 :], entry.bytes - size)
            self.current_bytes -= size
            self._stored_tuples -= 1
            self.metrics.maintenance_tuples_removed += 1
            self._aux_remove(key, held[i])
            return True

    def discard_entry(self, key: BcpKey) -> bool:
        """Forcibly drop a bcp and its tuples (maintenance/testing)."""
        with self.latch:
            self.policy.discard(key)
            return self._drop_entry(key)

    def clear(self) -> int:
        """Drop every entry, returning the PMV to the empty state.

        An empty PMV is always correct (the empty subset of the
        containing MV), so this is the fail-safe of last resort when
        maintenance fails partway — and the restart state after a
        crash.  Returns the number of entries dropped.
        """
        with self.latch:
            dropped = 0
            for key in list(self._entries):
                self.discard_entry(key)
                dropped += 1
            return dropped

    def set_upper_bound(self, upper_bound_bytes: int | None) -> None:
        """Re-budget a *live* PMV (the QoS governor's shrink/restore).

        Unlike the constructor, a runtime shrink never raises: a budget
        too small for even one entry simply sheds everything and leaves
        the view empty-but-alive (the empty subset is always correct),
        refilling from queries once the budget is restored.
        """
        if upper_bound_bytes is not None and upper_bound_bytes < 1:
            upper_bound_bytes = 1
        with self.latch:
            self.upper_bound_bytes = upper_bound_bytes
            self._enforce_budget()

    def _enforce_budget(self) -> None:
        """Shed whole entries while the UB byte budget is exceeded.

        The replacement policy picks the victims, so budget pressure
        evicts the same cold bcps that count pressure would.
        """
        if self.upper_bound_bytes is None:
            return
        while self.current_bytes > self.upper_bound_bytes and self._entries:
            victim = self.policy.force_evict()
            if victim is None:
                break
            self._drop_entry(victim)
            self.metrics.entries_evicted += 1

    # -- aux indexes ---------------------------------------------------------------------

    @property
    def aux_index_columns(self) -> tuple[str, ...]:
        return self._aux_columns

    def entries_with_value(self, column: str, value: Any) -> list[BcpKey]:
        """Bcp keys whose cached tuples contain ``value`` in ``column``.

        Probing this instead of computing the delta join is the
        Section 3.4 maintenance optimization.
        """
        if column not in self._aux:
            raise ViewDefinitionError(f"no aux index on {column!r}")
        return list(self._aux[column].get(value, ()))

    def rows_with_value(self, column: str, value: Any) -> list[Row]:
        """Cached tuples whose ``column`` equals ``value``."""
        out: list[Row] = []
        for key in self.entries_with_value(column, value):
            entry = self._entries.get(key)
            if entry is None:
                continue
            for row in entry.rows(self._row_schema):
                if row[column] == value:
                    out.append(row)
        return out

    def _aux_add(self, key: BcpKey, values: tuple) -> None:
        for column, position in self._aux_positions:
            bucket = self._aux[column].setdefault(values[position], {})
            bucket[key] = bucket.get(key, 0) + 1

    def _aux_remove(self, key: BcpKey, values: tuple) -> None:
        for column, position in self._aux_positions:
            value = values[position]
            bucket = self._aux[column].get(value)
            if not bucket or key not in bucket:
                continue
            if bucket[key] <= 1:
                del bucket[key]
                if not bucket:
                    del self._aux[column][value]
            else:
                bucket[key] -= 1

    # -- internals ----------------------------------------------------------------------

    def _capture_schema(self, schema) -> None:
        """Bind the result schema (first stored tuple wins): compile
        per-column byte sizers and aux-index positions against it."""
        self._row_schema = schema
        self._sizers = tuple(col.dtype.byte_size for col in schema.columns)
        self._aux_positions = tuple(
            (column, schema.position(column)) for column in self._aux_columns
        )

    def _values_size(self, values: tuple) -> int:
        """Byte footprint of one value tuple (same arithmetic as
        :meth:`Row.byte_size`, via the precompiled sizers)."""
        total = 0
        for sizer, value in zip(self._sizers, values):
            total += sizer(value)
        return total

    def _drop_entry(self, key: BcpKey) -> bool:
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        values_list = entry.values
        if values_list:
            if self._aux_positions:
                for values in values_list:
                    self._aux_remove(key, values)
            # Vectorized accounting: the entry carries its own byte
            # total, so eviction is O(1) in tuple sizing.
            self.current_bytes -= entry.bytes
            self._stored_tuples -= len(values_list)
        self.current_bytes -= self._key_cost
        return True

    # -- inspection --------------------------------------------------------------------

    @property
    def row_schema(self):
        """The result schema captured from the first stored tuple, or
        ``None`` while the view is empty.  The columnar executor uses
        it to compile tuple-position predicates and to materialize
        :class:`Row` objects at the client boundary."""
        return self._row_schema

    @property
    def entry_count(self) -> int:
        return len(self._entries)

    @property
    def stored_tuple_count(self) -> int:
        return self._stored_tuples

    def entries(self) -> Iterator[tuple[BcpKey, list[Row]]]:
        for key, entry in self._entries.items():
            yield key, list(entry.rows(self._row_schema))

    def check_invariants(self) -> None:
        """Internal consistency checks (used by tests).

        - every entry holds at most F tuples;
        - residency agrees between the policy and the entry dict;
        - every cached tuple actually belongs to its entry's bcp.
        """
        if (
            self.upper_bound_bytes is not None
            and len(self._entries) > 1
            and self.current_bytes > self.upper_bound_bytes
        ):
            raise ViewCapacityError(
                f"view holds {self.current_bytes}B > UB {self.upper_bound_bytes}B"
            )
        for key, entry in self._entries.items():
            if len(entry.values) > self.tuples_per_entry:
                raise ViewCapacityError(
                    f"entry {key!r} holds {len(entry.values)} > F tuples"
                )
            if not self.policy.contains(key):
                raise ViewDefinitionError(f"entry {key!r} not resident in policy")
            if entry.values and self._row_schema is None:
                raise ViewDefinitionError(
                    f"entry {key!r} holds tuples but no schema was captured"
                )
            for row in entry.rows(self._row_schema):
                if self.key_of_row(row) != key:
                    raise ViewDefinitionError(
                        f"tuple {row!r} stored under wrong bcp {key!r}"
                    )
        for key in self.policy.resident_keys():
            if key not in self._entries:
                raise ViewDefinitionError(f"policy-resident {key!r} has no entry")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartialMaterializedView({self.name!r}, entries={self.entry_count}/"
            f"{self.max_entries}, F={self.tuples_per_entry}, "
            f"tuples={self.stored_tuple_count})"
        )
