"""The :class:`Database` facade.

Ties together the disk manager, buffer pool, catalog, and lock manager,
and keeps secondary indexes synchronized with every heap mutation.
Base-relation changes are broadcast to registered listeners — the PMV
maintenance layer subscribes to these to implement Section 3.4's
deferred maintenance without the engine knowing anything about PMVs.

Concurrency model (see DESIGN.md §8): physical structures (heap pages,
indexes, WAL, statistics) are serialized by ``statement_latch``, a
re-entrant short-term latch held only for the in-memory portion of a
statement.  *Logical* conflicts are the lock manager's job, and lock
acquisition is strictly ordered **before** the latch: every DML
statement runs its prepare phase — where PMV maintenance takes its X
lock, possibly waiting — with the latch released, then re-enters the
latch to mutate.  A thread never waits on a lock while holding the
latch, so the latch can never participate in a deadlock.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterator, Sequence

from repro.engine.bufferpool import BufferPool
from repro.engine.catalog import Catalog
from repro.engine.disk import DiskManager, IOStats, LatencyModel
from repro.engine.heap import HeapRelation
from repro.engine.index import build_index
from repro.engine.locks import LockManager
from repro.engine.planner import (
    CompiledPlan,
    Plan,
    choose_driver_slot,
    compile_plan,
    driver_candidates,
)
from repro.engine.row import Row, RowId
from repro.engine.schema import Column, Schema
from repro.engine.stats import StatisticsCollector, TableStatistics
from repro.engine.template import Query, QueryTemplate
from repro.engine.transactions import Change, ChangeKind, Transaction
from repro.engine.wal import (
    LogKind,
    WriteAheadLog,
    log_create_index,
    log_create_relation,
)
from repro.errors import DiskFullError, WALFencedError, is_control_exception

__all__ = ["Database", "PlanCache"]

ChangeListener = Callable[[Change, Transaction | None], None]


class _TemplatePlans:
    """Compiled plans of one (template, blocking) pair, one per driver."""

    __slots__ = ("catalog_version", "candidates", "compiled")

    def __init__(self, catalog_version, candidates) -> None:
        self.catalog_version = catalog_version
        self.candidates = candidates
        self.compiled: dict[int | None, CompiledPlan] = {}


class PlanCache:
    """Template-level cache of compiled plan skeletons.

    Plan *structure* is a function of the template, the blocking flag,
    and the chosen driver access path — not of the bound slot values —
    so the cache compiles once per (template, blocking, driver) and
    re-binds the compiled skeleton per query.  Driver selection itself
    stays per-query (it reads the bound values through ANALYZE
    statistics), which keeps the statistics-directed plan choice of
    Section 4.2 intact.

    Entries are invalidated by comparing the catalog's DDL version
    counter: creating or dropping a relation or index bumps it, and the
    next ``plan()`` recompiles against the new catalog.
    """

    def __init__(self, catalog: Catalog) -> None:
        self._catalog = catalog
        self._families: dict[tuple[Any, bool], _TemplatePlans] = {}
        self._mutex = threading.Lock()
        self.hits = 0
        self.compilations = 0

    def plan(self, query, blocking: bool, statistics=None) -> Plan:
        """Bind (compiling if needed) a plan for ``query``."""
        catalog = self._catalog
        key = (query.template, blocking)
        with self._mutex:
            family = self._families.get(key)
            if family is None or family.catalog_version != catalog.version:
                family = _TemplatePlans(
                    catalog.version, driver_candidates(catalog, query.template)
                )
                self._families[key] = family
            driver_slot = choose_driver_slot(family.candidates, query, statistics)
            compiled = family.compiled.get(driver_slot)
            if compiled is None:
                compiled = compile_plan(catalog, query.template, blocking, driver_slot)
                family.compiled[driver_slot] = compiled
                self.compilations += 1
            else:
                self.hits += 1
        return compiled.bind(query)

    def clear(self) -> None:
        with self._mutex:
            self._families.clear()

    def info(self) -> dict[str, int]:
        """Counters for tests and benchmark reporting."""
        with self._mutex:
            return {
                "hits": self.hits,
                "compilations": self.compilations,
                "templates": len(self._families),
            }


class Database:
    """A single-node database instance.

    Parameters
    ----------
    buffer_pool_pages:
        Buffer pool capacity; defaults to the paper's PostgreSQL
        default of 1,000 pages.
    page_size:
        Page capacity in bytes.
    wal:
        Optional write-ahead log; when set, every DDL/DML statement is
        logged the moment it succeeds.
    disk:
        Optional pre-built disk manager (dependency injection — the
        fault-injection harness passes a
        :class:`repro.faults.inject.FaultyDiskManager` here).  Defaults
        to a fresh :class:`DiskManager`.
    """

    def __init__(
        self,
        buffer_pool_pages: int = 1000,
        page_size: int = 8192,
        wal: WriteAheadLog | None = None,
        disk: DiskManager | None = None,
    ) -> None:
        self.disk = disk if disk is not None else DiskManager(page_size=page_size)
        self.wal = wal
        self.buffer_pool = BufferPool(self.disk, capacity=buffer_pool_pages)
        self.catalog = Catalog()
        self.lock_manager = LockManager()
        self.latency_model = LatencyModel()
        self.statistics = StatisticsCollector()
        self.plan_cache = PlanCache(self.catalog)
        # Short-term re-entrant latch serializing the in-memory part of
        # every statement (heap + index + WAL mutation, result
        # materialization).  Held only while no lock wait can occur —
        # see the module docstring's lock-before-latch rule.
        self.statement_latch = threading.RLock()
        # Optional deterministic interleaving scheduler (repro.faults.sched),
        # shared with the lock manager.  None (and zero-cost) in production.
        self.scheduler = None
        # Optional fault-injection hook (repro.faults), threaded into
        # every transaction this database begins and fired by the PMV
        # maintenance layer at its prepare/apply sites.  None (and
        # zero-cost) in production.
        self.fault_hook: Callable[[str], None] | None = None
        # Transactional outbox (repro.cdc): when attached, every DML
        # statement appends its change record here inside the same
        # latched critical section as the WAL append, stamped with the
        # WAL LSN — so the feed order is the serialization order.
        # None (and zero-cost) when async maintenance is off.
        self.outbox = None
        self._listeners: list[ChangeListener] = []
        self._prepare_listeners: list[ChangeListener] = []
        self._abort_listeners: list[ChangeListener] = []
        # Exceptions eaten by fail-safe paths (best-effort abort
        # notification): each one bumps this counter so "silently
        # swallowed" is at least never silent (DESIGN.md §10).
        self.swallowed_errors = 0
        # Disk-full degradation (DESIGN.md §15): while the space probes
        # fail, the instance is read-only — queries keep serving, DML
        # is refused with a typed DiskFullError, and the first
        # successful probe clears the condition automatically.
        self.disk_full = False
        self.disk_full_refusals = 0
        self.disk_full_recoveries = 0

    # -- DDL ---------------------------------------------------------------------

    def create_relation(self, name: str, columns: Sequence[Column]) -> HeapRelation:
        """Create a heap relation and register it in the catalog."""
        schema = Schema(columns, relation_name=name)
        relation = HeapRelation(name, schema, self.buffer_pool)
        registered = self.catalog.add_relation(relation)
        if self.wal is not None:
            log_create_relation(self.wal, name, list(columns))
        return registered

    def create_index(
        self,
        name: str,
        relation_name: str,
        key_columns: Sequence[str],
        ordered: bool = False,
    ):
        """Create (and backfill) an index; register it in the catalog."""
        relation = self.catalog.relation(relation_name)
        index = build_index(name, relation, key_columns, ordered=ordered)
        registered = self.catalog.add_index(index)
        if self.wal is not None:
            log_create_index(self.wal, name, relation_name, key_columns, ordered)
        return registered

    def drop_index(self, name: str) -> None:
        """Drop an index; cached plans referencing it are invalidated
        through the catalog version bump."""
        self.catalog.drop_index(name)

    def register_template(self, template: QueryTemplate) -> QueryTemplate:
        return self.catalog.add_template(template)

    # -- transactions ----------------------------------------------------------------

    def begin(self, read_only: bool = False) -> Transaction:
        return Transaction(
            self.lock_manager, read_only=read_only, fault_hook=self.fault_hook
        )

    def current_lsn(self) -> int:
        """The newest serialization position: the WAL's last LSN when
        logging, else the outbox's own sequence (0 with neither).
        Freshness accounting measures PMV staleness against this."""
        if self.wal is not None:
            return self.wal.last_lsn
        if self.outbox is not None:
            return self.outbox.last_lsn
        return 0

    def install_scheduler(self, sched) -> None:
        """Install (or with ``None`` remove) a deterministic
        interleaving scheduler; it is shared with the lock manager so
        lock waits and grants become scheduler decision points."""
        self.scheduler = sched
        self.lock_manager.sched = sched

    # -- change listeners --------------------------------------------------------------

    def add_change_listener(self, listener: ChangeListener) -> None:
        """Subscribe to base-relation changes (used by PMV maintenance)."""
        self._listeners.append(listener)

    def remove_change_listener(self, listener: ChangeListener) -> None:
        self._listeners.remove(listener)

    def add_prepare_listener(self, listener: ChangeListener) -> None:
        """Subscribe to the *prepare* phase: called with the prospective
        change BEFORE the heap/indexes are touched.  A listener that
        raises (e.g. a lock denial) aborts the statement cleanly —
        this is how two-phase locking orders lock acquisition before
        the write (Section 3.6's X-lock-before-update)."""
        self._prepare_listeners.append(listener)

    def remove_prepare_listener(self, listener: ChangeListener) -> None:
        self._prepare_listeners.remove(listener)

    def add_abort_listener(self, listener: ChangeListener) -> None:
        """Called when a prepared statement fails before completion, so
        prepare-phase listeners can release resources."""
        self._abort_listeners.append(listener)

    def remove_abort_listener(self, listener: ChangeListener) -> None:
        self._abort_listeners.remove(listener)

    def _notify_prepare(self, change: Change, txn: Transaction | None) -> None:
        for listener in self._prepare_listeners:
            listener(change, txn)

    def _notify_abort(self, change: Change, txn: Transaction | None) -> None:
        """Best-effort: every abort listener gets its chance to release
        resources even if an earlier one raises.  A listener's own
        exception cannot be allowed to mask the statement failure that
        triggered the abort, so it is eaten — but counted, never
        silently (``swallowed_errors``).  Control-flow exceptions
        (KeyboardInterrupt, injected crashes, scheduler markers) are
        re-raised after the remaining listeners ran."""
        control: BaseException | None = None
        for listener in self._abort_listeners:
            try:
                listener(change, txn)
            except BaseException as exc:
                if is_control_exception(exc):
                    control = exc
                else:
                    self.swallowed_errors += 1
        if control is not None:
            raise control

    def _notify(self, change: Change, txn: Transaction | None) -> None:
        if txn is not None:
            txn.record_change(change)
        for listener in self._listeners:
            listener(change, txn)

    # -- DML -----------------------------------------------------------------------------

    def _check_fence(self) -> None:
        """Refuse writes on a fenced instance *before* any mutation.

        A deposed primary's WAL rejects appends, but by the time the
        append runs the heap and indexes are already mutated — the
        zombie would diverge from its own log.  Checking up front keeps
        a fenced instance read-only and internally consistent.
        """
        if self.wal is not None and self.wal.fenced_by_epoch is not None:
            raise WALFencedError(
                f"instance is fenced (epoch {self.wal.fenced_by_epoch} promoted "
                f"elsewhere); writes are refused"
            )

    def _check_writable(self) -> None:
        """Every pre-mutation admission check for a DML statement.

        Fencing first, then the disk-space probes (WAL reserve +
        deferred segment rotation, page-write reserve).  A probe
        failure is the read-only degradation entry point: the statement
        is refused with a typed :class:`~repro.errors.DiskFullError`
        while nothing has mutated, so queries — including PMV-backed
        partial answers — keep serving from the intact in-memory state.
        The next statement whose probes succeed flips the instance back
        to writable (auto-recovery; no operator reset needed).
        """
        self._check_fence()
        try:
            if self.wal is not None:
                self.wal.reserve()
            self.disk.ensure_space()
        except DiskFullError:
            self.disk_full = True
            self.disk_full_refusals += 1
            raise
        if self.disk_full:
            self.disk_full = False
            self.disk_full_recoveries += 1

    def insert(
        self,
        relation_name: str,
        values: Sequence[Any],
        txn: Transaction | None = None,
        idem: str | None = None,
    ) -> RowId:
        """Insert a row, maintain indexes, and broadcast the change.

        The prepare phase (where maintenance may wait for an X lock)
        runs with the statement latch released; the heap/index/WAL
        mutation and the change broadcast are one latched critical
        section, so listeners observe changes in serialization order.

        ``idem`` is an optional idempotency key carried verbatim in the
        statement's WAL payload (and through replica replay), letting
        the network tier rebuild its at-most-once dedup table from the
        log after a crash or failover.
        """
        self._check_writable()
        relation = self.catalog.relation(relation_name)
        prospective = Row(relation.schema.validate_values(values), relation.schema)
        change = Change(ChangeKind.INSERT, relation_name, new_row=prospective)
        self._notify_prepare(change, txn)
        with self.statement_latch:
            try:
                row_id = relation.insert(values)
                row = relation.fetch(row_id)
                for index in self.catalog.indexes_on(relation_name):
                    index.insert(row, row_id)
            except BaseException:
                # BaseException on purpose: the abort broadcast releases
                # prepared X locks, cleanup that must happen even when a
                # KeyboardInterrupt or injected crash unwinds the
                # statement.  _notify_abort itself is best-effort and
                # swallows nothing silently.
                self._notify_abort(change, txn)
                raise
            if self.wal is not None:
                payload = {"relation": relation_name, "values": list(row.values)}
                if idem is not None:
                    payload["idem"] = idem
                self.wal.append(LogKind.INSERT, payload)
            applied = Change(ChangeKind.INSERT, relation_name, new_row=row)
            if self.outbox is not None:
                if self.scheduler is not None:
                    # Interleaving seam: the window between the WAL
                    # append (LSN bumped) and the outbox append (feed
                    # record visible) — the phantom-freshness race site.
                    self.scheduler.switch("dml.outbox-append")
                self.outbox.append(
                    applied, self.wal.last_lsn if self.wal is not None else None
                )
            self._notify(applied, txn)
        return row_id

    def insert_many(
        self,
        relation_name: str,
        rows: Sequence[Sequence[Any]],
        txn: Transaction | None = None,
    ) -> list[RowId]:
        return [self.insert(relation_name, values, txn=txn) for values in rows]

    def delete(
        self,
        relation_name: str,
        row_id: RowId,
        txn: Transaction | None = None,
        idem: str | None = None,
    ) -> Row:
        """Delete the row at ``row_id``; returns the deleted row.

        The prepare phase runs before the heap or any index is touched,
        so a lock denial aborts the statement with no base change.
        """
        self._check_writable()
        relation = self.catalog.relation(relation_name)
        with self.statement_latch:
            row = relation.fetch(row_id)
        change = Change(ChangeKind.DELETE, relation_name, old_row=row)
        self._notify_prepare(change, txn)
        with self.statement_latch:
            try:
                for index in self.catalog.indexes_on(relation_name):
                    index.delete(row, row_id)
                relation.delete(row_id)
            except BaseException:
                # See insert(): cleanup broadcast, runs for control
                # exceptions too, never a silent swallow.
                self._notify_abort(change, txn)
                raise
            if self.wal is not None:
                payload = {
                    "relation": relation_name,
                    "page_no": row_id.page_no,
                    "slot_no": row_id.slot_no,
                }
                if idem is not None:
                    payload["idem"] = idem
                self.wal.append(LogKind.DELETE, payload)
            if self.outbox is not None:
                if self.scheduler is not None:
                    # Interleaving seam: see insert().
                    self.scheduler.switch("dml.outbox-append")
                self.outbox.append(
                    change, self.wal.last_lsn if self.wal is not None else None
                )
            self._notify(change, txn)
        return row

    def delete_where(
        self,
        relation_name: str,
        predicate: Callable[[Row], bool],
        txn: Transaction | None = None,
        idem: str | None = None,
    ) -> list[Row]:
        """Delete every row matching ``predicate``; returns them."""
        relation = self.catalog.relation(relation_name)
        with self.statement_latch:
            victims = [
                (row_id, row) for row_id, row in relation.scan() if predicate(row)
            ]
        deleted = []
        for row_id, _ in victims:
            deleted.append(self.delete(relation_name, row_id, txn=txn, idem=idem))
        return deleted

    def delete_eq(
        self,
        relation_name: str,
        column: str,
        value: Any,
        txn: Transaction | None = None,
        idem: str | None = None,
    ) -> list[Row]:
        """Delete every row whose ``column`` equals ``value``; returns them.

        Deletes what ``delete_where(relation_name, lambda row:
        row[column] == value)`` deletes, in the same (heap) order, so
        the WAL receives the same records.  With an index on ``column``
        the latched lookup probes it and fetches only the matched rows
        (sorting row ids sorts them into heap order); without one this
        *is* that ``delete_where``.  Each victim is then deleted as its
        own statement.
        """
        index = self.catalog.find_index(relation_name, column)
        if index is None:
            return self.delete_where(
                relation_name, lambda row: row[column] == value, txn=txn, idem=idem
            )
        relation = self.catalog.relation(relation_name)
        position = relation.schema.position(column)
        with self.statement_latch:
            try:
                row_ids = index.probe(value)
            except TypeError:
                # ``value`` hashes or orders against no stored key (a
                # list, or None on an ordered index): it equals none of
                # them, so the scan would match nothing.
                row_ids = []
            row_ids.sort()
            payloads = relation.fetch_payloads(row_ids)
        # The probe matched ``value`` by hash or order; ``==`` is what
        # the scan decides by, so it decides here too.
        victims = [
            row_id
            for row_id, payload in zip(row_ids, payloads)
            if payload[position] == value
        ]
        return [
            self.delete(relation_name, row_id, txn=txn, idem=idem)
            for row_id in victims
        ]

    def update(
        self,
        relation_name: str,
        row_id: RowId,
        txn: Transaction | None = None,
        idem: str | None = None,
        **changes: Any,
    ) -> tuple[Row, Row, RowId]:
        """Update named columns of one row; returns (old, new, new_id).

        The prepare phase (with the prospective new row) runs before
        any mutation, so lock denials and type errors abort cleanly.
        """
        self._check_writable()
        relation = self.catalog.relation(relation_name)
        with self.statement_latch:
            old_row = relation.fetch(row_id)
        prospective = old_row.replace(**changes)
        relation.schema.validate_values(prospective.values)
        change = Change(
            ChangeKind.UPDATE, relation_name, old_row=old_row, new_row=prospective
        )
        self._notify_prepare(change, txn)
        with self.statement_latch:
            try:
                # Heap first: when it refuses (a row that fits on no
                # page) no index has been touched yet.
                old_row, new_row, new_id = relation.update(row_id, **changes)
                for index in self.catalog.indexes_on(relation_name):
                    index.delete(old_row, row_id)
                    index.insert(new_row, new_id)
            except BaseException:
                # See insert(): cleanup broadcast, runs for control
                # exceptions too, never a silent swallow.
                self._notify_abort(change, txn)
                raise
            if self.wal is not None:
                payload = {
                    "relation": relation_name,
                    "page_no": row_id.page_no,
                    "slot_no": row_id.slot_no,
                    "changes": dict(changes),
                }
                if idem is not None:
                    payload["idem"] = idem
                self.wal.append(LogKind.UPDATE, payload)
            applied = Change(
                ChangeKind.UPDATE, relation_name, old_row=old_row, new_row=new_row
            )
            if self.outbox is not None:
                if self.scheduler is not None:
                    # Interleaving seam: see insert().
                    self.scheduler.switch("dml.outbox-append")
                self.outbox.append(
                    applied, self.wal.last_lsn if self.wal is not None else None
                )
            self._notify(applied, txn)
        return old_row, new_row, new_id

    # -- statistics ------------------------------------------------------------------------

    def analyze(self, relation_name: str | None = None) -> TableStatistics | None:
        """Collect planner statistics (the paper's "statistics collection
        program").  Analyzes one relation, or all when none is named."""
        with self.statement_latch:
            if relation_name is not None:
                return self.statistics.analyze(self.catalog.relation(relation_name))
            for relation in self.catalog.relations():
                self.statistics.analyze(relation)
            return None

    # -- query execution -------------------------------------------------------------------

    def plan(self, query: Query, blocking: bool = True) -> Plan:
        """Plan ``query``, re-binding a cached compiled plan when possible."""
        return self.plan_cache.plan(query, blocking, statistics=self.statistics)

    def run(self, query: Query, blocking: bool = True) -> list[Row]:
        """Execute ``query`` to completion and return its ``Ls'`` rows:
        the one place plan output is materialized as :class:`Row` objects."""
        plan = self.plan(query, blocking=blocking)
        schema = plan.root.schema
        with self.statement_latch:
            return [
                Row(values, schema)
                for batch in plan.execute_column_batches()
                for values in batch.tuples()
            ]

    # -- accounting -----------------------------------------------------------------------

    def io_snapshot(self) -> IOStats:
        return self.disk.stats.snapshot()

    def io_since(self, snapshot: IOStats) -> IOStats:
        return self.disk.stats.delta(snapshot)
