"""Recovery and consistency invariant checkers.

After every simulated crash (or injected recoverable fault) these
checks assert that the WAL, heap, indexes, and PMV layer still agree:

- :func:`verify_database` — heap/index agreement: every live row is
  reachable through every index on its relation, and no index holds
  dangling entries;
- :func:`check_view_against_database` — no phantom cached tuples:
  every tuple a PMV would serve is a *current* true result of its
  template (the reference model's answer), the F and UB bounds
  hold, and the auxiliary indexes cover exactly the cached tuples;
- :func:`verify_crash_recovery` — atomic, durable statements: the
  recovered database equals the pre-crash acknowledged state, except
  possibly for the single statement that was in flight when the crash
  hit (which must be applied entirely or not at all).

Violations raise :class:`InvariantViolation` with enough context to
replay the failure (the torture driver attaches seed and fault spec).
"""

from __future__ import annotations

from typing import Sequence

from repro.check.model import evaluate, tables_of
from repro.core.view import PartialMaterializedView
from repro.engine.database import Database
from repro.errors import ReproError

__all__ = [
    "InvariantViolation",
    "contents_of",
    "verify_database",
    "check_view_against_database",
    "verify_crash_recovery",
]


class InvariantViolation(ReproError):
    """A recovery/consistency invariant does not hold — a divergence
    a drill reports with its replay handle."""


def contents_of(
    database: Database, relations: Sequence[str] | None = None
) -> dict[str, list[tuple]]:
    """Logical table contents: relation name -> sorted value tuples.

    Physical addressing is checked separately; two databases with equal
    ``contents_of`` hold the same rows.
    """
    if relations is None:
        relations = [r.name for r in database.catalog.relations()]
    out: dict[str, list[tuple]] = {}
    for name in relations:
        relation = database.catalog.relation(name)
        out[name] = sorted(
            (tuple(row.values) for row in relation.scan_rows()),
            key=repr,
        )
    return out


def verify_database(database: Database) -> None:
    """Heap/index agreement for every relation.

    Every live row must be reachable through every index on its
    relation (probe its key, find its row id), and each index's entry
    count must equal the relation's row count — together these rule
    out both missing and dangling index entries.
    """
    for relation in database.catalog.relations():
        indexes = list(database.catalog.indexes_on(relation.name))
        row_count = 0
        for row_id, row in relation.scan():
            row_count += 1
            fetched = relation.fetch(row_id)
            if tuple(fetched.values) != tuple(row.values):
                raise InvariantViolation(
                    f"{relation.name}: scan and fetch disagree at {row_id}"
                )
            for index in indexes:
                if row_id not in index.probe(index.key_of(row)):
                    raise InvariantViolation(
                        f"index {index.name}: live row {row_id} of "
                        f"{relation.name} is not reachable via its key"
                    )
        if relation.row_count != row_count:
            raise InvariantViolation(
                f"{relation.name}: row_count {relation.row_count} != "
                f"scanned {row_count}"
            )
        for index in indexes:
            if index.entry_count != row_count:
                raise InvariantViolation(
                    f"index {index.name}: {index.entry_count} entries for "
                    f"{row_count} rows (dangling or missing entries)"
                )


def check_view_against_database(
    database: Database, view: PartialMaterializedView, allow_stale: bool = False
) -> None:
    """No stale PMV state: compare every resident bcp's cached tuples
    against the reference model's full template result.

    Checks, in order: the view's own structural invariants; that every
    cached tuple is a current true result (no phantom/deleted tuples
    served); the UB byte budget; and that the auxiliary indexes cover
    exactly the cached tuples (so AUX_INDEX maintenance cannot miss a
    future delete).

    ``allow_stale`` skips *only* the phantom check: an async-maintained
    view whose applied-LSN watermark trails the current LSN
    legitimately caches tuples the current state no longer derives
    (DESIGN.md §13) — its structural, UB, and aux-coverage invariants
    must still hold.  Callers must pass it only while the view is
    intentionally behind the feed; a converged view gets the strict
    check.
    """
    view.check_invariants()
    cached: dict[tuple, int] = {}
    total_rows = 0
    for key, rows in view.entries():
        for row in rows:
            values = tuple(row.values)
            cached[values] = cached.get(values, 0) + 1
            total_rows += 1
    if not allow_stale:
        # The template's full result (the containing MV), from the
        # reference model: it shares no join or probe with maintenance.
        template = view.template
        truth = evaluate(tables_of(database, template.relations), template)
        for values, count in cached.items():
            if count > truth.get(values, 0):
                raise InvariantViolation(
                    f"{view.name}: cached tuple {values!r} x{count} exceeds its "
                    f"true multiplicity {truth.get(values, 0)} — a phantom "
                    f"(deleted/updated) tuple would be served"
                )
    if (
        view.upper_bound_bytes is not None
        and view.entry_count > 1
        and view.current_bytes > view.upper_bound_bytes
    ):
        raise InvariantViolation(
            f"{view.name}: {view.current_bytes}B exceeds UB "
            f"{view.upper_bound_bytes}B"
        )
    for column in view.aux_index_columns:
        covered = 0
        for value, bucket in view._aux[column].items():
            for key, count in bucket.items():
                rows = view.lookup(key)
                if rows is None:
                    raise InvariantViolation(
                        f"{view.name}: aux index on {column!r} points at "
                        f"non-resident bcp {key!r}"
                    )
                matching = sum(1 for row in rows if row[column] == value)
                if matching != count:
                    raise InvariantViolation(
                        f"{view.name}: aux index on {column!r} counts {count} "
                        f"tuples with value {value!r} in {key!r}, entry holds "
                        f"{matching}"
                    )
                covered += count
        if covered != total_rows:
            raise InvariantViolation(
                f"{view.name}: aux index on {column!r} covers {covered} of "
                f"{total_rows} cached tuples"
            )


def verify_crash_recovery(
    recovered: Database,
    acked: dict[str, list[tuple]],
    acked_plus_inflight: dict[str, list[tuple]] | None = None,
) -> None:
    """Atomicity + durability after a crash.

    ``acked`` is the logical contents after every acknowledged
    statement; ``acked_plus_inflight`` additionally applies the single
    statement that was in flight when the crash hit (None when there
    was none, or when it had no data effect).  The recovered database
    must equal one of the two — anything else lost an acknowledged
    statement or applied a partial one.
    """
    verify_database(recovered)
    actual = contents_of(recovered, sorted(acked))
    if actual == acked:
        return
    if acked_plus_inflight is not None and actual == acked_plus_inflight:
        return
    detail = []
    for name in sorted(acked):
        if actual.get(name) != acked[name]:
            detail.append(
                f"{name}: recovered {len(actual.get(name, []))} rows, "
                f"acked {len(acked[name])}"
            )
    raise InvariantViolation(
        "recovered state matches neither the acknowledged state nor "
        "acknowledged+in-flight: " + "; ".join(detail or ["row values differ"])
    )
