"""Deferred PMV maintenance (Section 3.4).

A :class:`PMVMaintainer` subscribes to the database's change stream and
keeps one PMV from ever serving stale tuples, at the minimum possible
cost:

- **insert** — never maintained: a new base tuple can only create
  *new* results, and a PMV (being any subset of its containing MV)
  stays correct without them;
- **delete** — affected cached tuples are removed.  Two strategies:
  ``DELTA_JOIN`` computes the join of the deleted row with the other
  base relations (the main-text algorithm); ``AUX_INDEX`` probes the
  PMV's in-memory auxiliary indexes instead (the optimization the
  paper defers to its full version), avoiding the join entirely;
- **update** — skipped outright when no attribute of the expanded
  select list ``Ls'`` or of ``Cjoin`` changed; otherwise handled like
  a delete of the old row (the new values, like an insert, need no
  maintenance).

Locking follows Section 3.6's protocol with proper two-phase ordering:
the maintainer subscribes to the database's *prepare* phase and
acquires the X lock on the PMV **before** the base relation is touched,
so a denial (a reader holds its S lock between O2 and O3) aborts the
writing statement cleanly with no base change — exactly the "updating
some base relation ... would require updating VPM with the acquisition
of an X lock" discipline the paper describes.
"""

from __future__ import annotations

import enum
import threading
import time
from typing import Any

from repro.core.view import PartialMaterializedView
from repro.engine.database import Database
from repro.engine.row import Row
from repro.engine.schema import Schema
from repro.engine.template import QueryTemplate
from repro.engine.transactions import Change, ChangeKind, Transaction
from repro.errors import LockError, MaintenanceError, is_control_exception

__all__ = [
    "MaintenanceStrategy",
    "PMVMaintainer",
    "template_result_schema",
    "compute_delta_join",
]

# The X-lock acquisition policy: wait up to X_LOCK_TIMEOUT seconds per
# attempt and retry X_LOCK_RETRIES times with a linear backoff when the
# request loses to readers, before letting the LockError abort the
# writing statement.
X_LOCK_TIMEOUT = 0.2
X_LOCK_RETRIES = 2
X_LOCK_BACKOFF = 0.05


class MaintenanceStrategy(enum.Enum):
    """How deletes/updates locate affected cached tuples."""

    DELTA_JOIN = "delta_join"
    AUX_INDEX = "aux_index"


def template_result_schema(template: QueryTemplate, database: Database) -> Schema:
    """The schema of the template's ``Ls'`` result tuples.

    Built exactly the way the planner builds it (concat of the base
    schemas, then projection), so rows constructed against it compare
    equal to execution output rows.
    """
    catalog = database.catalog
    joined = catalog.relation(template.relations[0]).schema
    for name in template.relations[1:]:
        joined = joined.concat(catalog.relation(name).schema)
    return joined.project(template.expanded_select_list())


def compute_delta_join(
    database: Database,
    template: QueryTemplate,
    relation: str,
    delta_row: Row,
    result_schema: Schema | None = None,
) -> list[Row]:
    """Join one ΔRi row with the template's other base relations.

    Returns ``Ls'`` result rows, exactly as plan execution would
    produce them.  Uses the catalog's join-attribute indexes, so the
    cost mirrors a real system's delta join.  Shared by PMV maintenance
    and the traditional-MV baseline.
    """
    catalog = database.catalog
    if result_schema is None:
        result_schema = template_result_schema(template, database)
    # Each partial binding maps qualified column name -> value.
    bindings: list[dict[str, Any]] = [
        {
            f"{relation}.{name}": value
            for name, value in zip(delta_row.schema.names(), delta_row.values)
        }
    ]
    planned = {relation}
    pending = list(template.joins)
    while pending:
        progressed = False
        for edge in list(pending):
            left_in = edge.left_relation in planned
            right_in = edge.right_relation in planned
            if left_in and right_in:
                pending.remove(edge)
                left_q, right_q = edge.qualified_left(), edge.qualified_right()
                bindings = [
                    b
                    for b in bindings
                    if b[left_q] == b[right_q] and b[left_q] is not None
                ]
                progressed = True
                continue
            if not left_in and not right_in:
                continue
            if left_in:
                source_col = edge.qualified_left()
                target_rel, target_col = edge.right_relation, edge.right_column
            else:
                source_col = edge.qualified_right()
                target_rel, target_col = edge.left_relation, edge.left_column
            index = catalog.find_index(target_rel, target_col)
            if index is None:
                raise MaintenanceError(
                    f"delta join needs an index on {target_rel}.{target_col}"
                )
            target = catalog.relation(target_rel)
            grown: list[dict[str, Any]] = []
            for binding in bindings:
                if binding[source_col] is None:
                    continue  # a None join key equals nothing
                for row_id in index.probe(binding[source_col]):
                    matched = target.fetch(row_id)
                    extended = dict(binding)
                    for name, value in zip(matched.schema.names(), matched.values):
                        extended[f"{target_rel}.{name}"] = value
                    grown.append(extended)
            bindings = grown
            planned.add(target_rel)
            pending.remove(edge)
            progressed = True
        if not progressed:
            raise MaintenanceError(f"join graph of {template.name!r} is disconnected")
    # Parameterless Cjoin conditions must hold as well.
    for condition in template.fixed_conditions:
        column = condition.column
        bindings = [
            binding for binding in bindings if _condition_holds(condition, binding[column])
        ]
    names = template.expanded_select_list()
    return [Row([binding[name] for name in names], result_schema) for binding in bindings]


class PMVMaintainer:
    """Keeps one PMV consistent under base-relation changes."""

    def __init__(
        self,
        database: Database,
        view: PartialMaterializedView,
        strategy: MaintenanceStrategy = MaintenanceStrategy.DELTA_JOIN,
    ) -> None:
        self.database = database
        self.view = view
        self.strategy = strategy
        self._attached = False
        # QoS hook: the degradation governor attaches its CircuitBreaker
        # here while DEGRADED (and detaches it on recovery).  When the
        # breaker is open, _acquire_x collapses to a single no-wait
        # attempt so writer statements stop parking on a lock queue that
        # keeps timing out (DESIGN.md §10).
        self.breaker = None
        # Async (CDC) mode, configured by repro.cdc.AsyncMaintainer:
        # relevant changes are routed at prepare time — hot condition
        # parts (per the splitter) keep the eager X-lock path below,
        # cold ones skip the write-path lock entirely and ride the
        # outbox feed to the background drain (DESIGN.md §13).
        self.async_mode = False
        self.splitter = None
        self.outbox = None
        self._pending_routes: dict[int, list[bool]] = {}
        # X-lock transactions opened in the prepare phase for
        # statements outside a caller transaction, committed when the
        # corresponding change (or abort) arrives.  One statement is in
        # flight per thread at a time, so a per-thread stack pairs the
        # prepare with its change/abort even with concurrent writers.
        self._pending_txns: dict[int, list[Transaction]] = {}
        self._pending_mutex = threading.Lock()
        self._result_schema = template_result_schema(view.template, database)
        if strategy is MaintenanceStrategy.AUX_INDEX:
            self._check_aux_coverage()
        # Attributes of Ls' and Cjoin per relation: updates touching
        # none of them are free (Section 3.4, case 3).
        self._relevant_attrs: dict[str, set[str]] = {
            name: set() for name in view.template.relations
        }
        for qualified in view.template.expanded_select_list():
            relation, bare = qualified.split(".", 1)
            self._relevant_attrs[relation].add(bare)
        for join in view.template.joins:
            self._relevant_attrs[join.left_relation].add(join.left_column)
            self._relevant_attrs[join.right_relation].add(join.right_column)
        for condition in view.template.fixed_conditions:
            relation, bare = condition.column.split(".", 1)
            self._relevant_attrs[relation].add(bare)

    # -- wiring ---------------------------------------------------------------

    def attach(self) -> "PMVMaintainer":
        """Start listening to the database's prepare/change/abort stream."""
        if not self._attached:
            self.database.add_prepare_listener(self.prepare_change)
            self.database.add_change_listener(self.handle_change)
            self.database.add_abort_listener(self.abort_change)
            self._attached = True
        return self

    def detach(self) -> None:
        if self._attached:
            self.database.remove_prepare_listener(self.prepare_change)
            self.database.remove_change_listener(self.handle_change)
            self.database.remove_abort_listener(self.abort_change)
            self._attached = False

    # -- change handling ----------------------------------------------------------

    def _needs_maintenance(self, change: Change) -> bool:
        """Whether this change will touch the PMV (and thus needs X)."""
        if change.relation not in self.view.template.relations:
            return False
        if change.kind is ChangeKind.INSERT:
            return False
        if change.kind is ChangeKind.UPDATE and not self._update_is_relevant(change):
            return False
        return True

    def _fire_fault(self, site: str) -> None:
        """Fault-injection site (repro.faults).  A raised exception here
        propagates exactly like an organic failure at this point —
        which is what the crash-recovery torture harness exercises."""
        hook = self.database.fault_hook
        if hook is not None:
            hook(site)

    def prepare_change(self, change: Change, txn: Transaction | None) -> None:
        """Prepare phase: take the X lock *before* the base write.

        Raises :class:`~repro.errors.LockError` if a reader currently
        holds its O2→O3 S lock, aborting the statement with the base
        relations untouched.
        """
        if not self._needs_maintenance(change):
            return
        if self.async_mode:
            hot = (
                self.splitter.is_hot(change, self.view)
                if self.splitter is not None
                else False
            )
            self._push_route(hot)
            if not hot:
                # Cold condition part: no write-path X lock — the
                # outbox feed carries the delta to the drain.
                return
        self._fire_fault("maintenance.prepare")
        if txn is not None:
            self._acquire_x(txn)
            return
        pending = self.database.begin()
        try:
            self._acquire_x(pending)
        except BaseException:
            # Pure cleanup, never a swallow: release the transaction so
            # no lock leaks, then re-raise whatever happened — including
            # KeyboardInterrupt/SystemExit and injected control
            # exceptions, which the old ``except Exception`` would have
            # left holding a half-prepared lock.
            pending.abort()
            raise
        self._push_pending(pending)

    def _acquire_x(self, txn: Transaction) -> None:
        """Take the view's X lock, waiting and retrying with backoff.

        A maintenance X request can repeatedly lose to reader S locks
        (queries pinning the view across O2→O3); a bounded
        retry-with-backoff rides out reader bursts before giving up and
        letting the LockError abort the writing statement.
        """
        breaker = self.breaker
        if breaker is not None and not breaker.allow_retries():
            # Breaker open (governor is DEGRADED and retries keep
            # losing): one immediate no-wait attempt, no parking on the
            # lock queue.  Success/failure still feeds the breaker so a
            # half-open probe can close it again.
            try:
                txn.lock_exclusive(self.view.name, wait=False)
            except LockError:
                breaker.record_failure()
                raise
            breaker.record_success()
            return
        attempts = X_LOCK_RETRIES + 1
        for attempt in range(1, attempts + 1):
            try:
                txn.lock_exclusive(self.view.name, wait=True, timeout=X_LOCK_TIMEOUT)
                if breaker is not None:
                    breaker.record_success()
                return
            except LockError:
                if attempt >= attempts:
                    if breaker is not None:
                        breaker.record_failure()
                    raise
                self.view.metrics.maintenance_lock_retries += 1
                time.sleep(X_LOCK_BACKOFF * attempt)

    def _push_route(self, hot: bool) -> None:
        ident = threading.get_ident()
        with self._pending_mutex:
            self._pending_routes.setdefault(ident, []).append(hot)

    def _pop_route(self) -> bool | None:
        ident = threading.get_ident()
        with self._pending_mutex:
            stack = self._pending_routes.get(ident)
            if not stack:
                return None
            hot = stack.pop()
            if not stack:
                del self._pending_routes[ident]
            return hot

    def _push_pending(self, pending: Transaction) -> None:
        ident = threading.get_ident()
        with self._pending_mutex:
            self._pending_txns.setdefault(ident, []).append(pending)

    def _pop_pending(self) -> Transaction | None:
        ident = threading.get_ident()
        with self._pending_mutex:
            stack = self._pending_txns.get(ident)
            if not stack:
                return None
            pending = stack.pop()
            if not stack:
                del self._pending_txns[ident]
            return pending

    def abort_change(self, change: Change, txn: Transaction | None) -> None:
        """The prepared statement failed: release any pending X lock."""
        if not self._needs_maintenance(change):
            return
        if self.async_mode and self._pop_route() is False:
            # Cold route: prepare took no lock, nothing to release.
            return
        if txn is None:
            pending = self._pop_pending()
            if pending is not None:
                pending.abort()

    def handle_change(self, change: Change, txn: Transaction | None) -> None:
        """React to one applied base-relation change (the ΔRi element)."""
        if change.relation not in self.view.template.relations:
            return
        metrics = self.view.metrics
        if change.kind is ChangeKind.INSERT:
            # Section 3.4 case 1: existing PMV tuples are unaffected.
            metrics.maintenance_inserts_ignored += 1
            return
        if change.kind is ChangeKind.UPDATE:
            assert change.old_row is not None and change.new_row is not None
            if not self._update_is_relevant(change):
                metrics.maintenance_updates_skipped += 1
                return
            if self.async_mode and not self._consume_route(change):
                return
            self._remove_derived(change.relation, change.old_row, txn)
            self._mark_eager_applied()
            return
        assert change.old_row is not None
        if self.async_mode and not self._consume_route(change):
            return
        metrics.maintenance_deletes += 1
        self._remove_derived(change.relation, change.old_row, txn)
        self._mark_eager_applied()

    def _consume_route(self, change: Change) -> bool:
        """Async mode: consume the prepare-time routing decision.

        True means hot — apply eagerly now (the X lock was taken in
        prepare) and mark the feed record so the drain skips it.
        False means cold — the delta is deferred to the drain.
        """
        hot = self._pop_route()
        if hot is None:
            # Change arrived without a prepare (maintainer attached
            # mid-statement): re-derive the route, defaulting cold.
            hot = (
                self.splitter.is_hot(change, self.view)
                if self.splitter is not None
                else False
            )
        if not hot:
            self.view.metrics.maintenance_deferred += 1
            return False
        return True

    def _mark_eager_applied(self) -> None:
        """Hot-path bookkeeping: the statement's feed record (the
        newest one — we are still inside its latched section) is
        already reflected in this view; the drain must not re-apply.
        When no earlier pending record still awaits this view, the
        freshness watermark advances immediately — an all-hot view
        reports zero staleness without waiting for a drain pass."""
        if self.async_mode and self.outbox is not None:
            lsn = self.outbox.last_lsn
            self.outbox.mark_applied(lsn, self.view.name)
            if self.outbox.applied_up_to(lsn, self.view.name):
                self.view.applied_lsn = max(self.view.applied_lsn, lsn)

    def _update_is_relevant(self, change: Change) -> bool:
        relevant = self._relevant_attrs[change.relation]
        old, new = change.old_row, change.new_row
        assert old is not None and new is not None
        return any(old[attr] != new[attr] for attr in relevant)

    # -- removal strategies ----------------------------------------------------------

    def _remove_derived(
        self, relation: str, old_row: Row, txn: Transaction | None
    ) -> None:
        # The X lock was taken in the prepare phase; a caller txn holds
        # it until its own commit, a pending internal txn until the
        # maintenance work below completes.
        pending = None
        if txn is None:
            pending = self._pop_pending()
            if pending is None:
                # Change arrived without a prepare (e.g. the maintainer
                # attached mid-statement): lock now, best effort — and
                # strictly no-wait, because this path runs inside the
                # statement latch where waiting could deadlock.
                pending = self.database.begin()
                pending.lock_exclusive(self.view.name, wait=False)
        try:
            self._fire_fault("maintenance.apply")
            if self.strategy is MaintenanceStrategy.AUX_INDEX:
                self._remove_via_aux_index(relation, old_row)
            else:
                self._remove_via_delta_join(relation, old_row)
        except Exception as exc:
            if is_control_exception(exc):
                # Scheduler-deadlock markers and other control-flow
                # exceptions are not organic maintenance failures:
                # propagate without the fail-safe side effects, so the
                # fault harness sees the PMV exactly as the "crash"
                # left it.
                raise
            # Fail-safe: the removal may have stopped partway, so the
            # PMV could now serve stale tuples.  The empty subset is
            # always a correct subset, so clear the whole view before
            # re-raising.  (A SimulatedCrash is a BaseException and
            # bypasses this — after a crash the PMV restarts empty
            # anyway, which is the same fail-safe.)
            try:
                self.view.clear()
            except Exception:
                # The clear itself failing must not mask the original
                # error; account for the eaten secondary exception.
                self.view.metrics.swallowed_errors += 1
            self.view.metrics.maintenance_failsafe_clears += 1
            if self.async_mode:
                # The cleared (empty) view is a correct subset as of
                # *now*: the freshness watermark jumps to the current
                # LSN (DESIGN.md §13 watermark rules).
                self.view.applied_lsn = self.database.current_lsn()
            if self.breaker is not None:
                self.breaker.record_failure()
            raise
        finally:
            if pending is not None:
                pending.commit()

    def apply_async(self, change: Change) -> bool:
        """Apply one outbox delta — the async drain path.

        The caller (:class:`repro.cdc.AsyncMaintainer`) already holds
        the view's X lock and the statement latch.  Returns True when
        the delta was applied, False when an organic failure triggered
        the fail-safe clear — after which the (empty) view is fully
        fresh, so the caller advances the watermark either way.
        Control exceptions (simulated crashes) propagate untouched.
        """
        metrics = self.view.metrics
        old_row = change.old_row
        assert old_row is not None
        try:
            self._fire_fault("outbox.drain")
            if change.kind is ChangeKind.DELETE:
                metrics.maintenance_deletes += 1
            if self.strategy is MaintenanceStrategy.AUX_INDEX:
                self._remove_via_aux_index(change.relation, old_row)
            else:
                self._remove_via_delta_join(change.relation, old_row)
        except Exception as exc:
            if is_control_exception(exc):
                raise
            # Same fail-safe as the eager path: a half-done removal may
            # leave stale tuples, the empty subset never can.  Unlike a
            # writing statement there is nothing to abort here, so the
            # failure is absorbed (counted, never silent) and the drain
            # moves on.
            try:
                self.view.clear()
            except Exception:
                metrics.swallowed_errors += 1
            metrics.maintenance_failsafe_clears += 1
            self.view.applied_lsn = self.database.current_lsn()
            if self.breaker is not None:
                self.breaker.record_failure()
            return False
        metrics.maintenance_async_applied += 1
        return True

    def _remove_via_delta_join(self, relation: str, old_row: Row) -> None:
        """Main-text algorithm: join ΔRi against the other relations and
        drop each derived result tuple that is cached."""
        for result in self.delta_join(relation, old_row):
            self.view.remove_tuple(result)

    def _remove_via_aux_index(self, relation: str, old_row: Row) -> None:
        """Optimized algorithm: probe the PMV's auxiliary index on one of
        the deleted row's identifying attributes.

        Removes every cached tuple carrying the deleted row's value in
        that attribute.  This is a (safe) superset of the stale tuples
        whenever the attribute does not functionally determine the
        row — dropping a still-valid tuple only shrinks the cache, it
        can never make the PMV incorrect.
        """
        column = self._aux_column_for(relation)
        bare = column.split(".", 1)[1]
        for row in self.view.rows_with_value(column, old_row[bare]):
            self.view.remove_tuple(row)

    # -- delta join -----------------------------------------------------------------------

    def delta_join(self, relation: str, delta_row: Row) -> list[Row]:
        """Join one ΔRi row with the other base relations of the view."""
        return compute_delta_join(
            self.database, self.view.template, relation, delta_row, self._result_schema
        )

    # -- aux-index configuration ----------------------------------------------------------

    def _check_aux_coverage(self) -> None:
        for relation in self.view.template.relations:
            self._aux_column_for(relation)

    def _aux_column_for(self, relation: str) -> str:
        prefix = f"{relation}."
        for column in self.view.aux_index_columns:
            if column.startswith(prefix):
                return column
        raise MaintenanceError(
            f"AUX_INDEX maintenance needs an auxiliary index on an attribute of "
            f"{relation!r} (in Ls'); configure aux_index_columns on the view"
        )


def _condition_holds(condition, value: Any) -> bool:
    """Evaluate a single-attribute fixed condition against a raw value."""
    from repro.engine.predicate import EqualityDisjunction

    if isinstance(condition, EqualityDisjunction):
        return value in condition.values
    return any(iv.contains_value(value) for iv in condition.intervals)
