"""Query handling through a PMV: Operations O1, O2, O3 (Section 3.3).

Given a bound query, :class:`PMVExecutor`:

- **O1** breaks ``Cselect`` into non-overlapping condition parts;
- **O2** takes an S lock on the PMV, probes the bcp index for each
  part's containing bcp, and returns the cached tuples that satisfy
  the query as *immediate partial results*, remembering what it
  delivered (the paper's duplicate suppressor ``DS``);
- **O3** runs the full (blocking) plan, suppresses the tuples the user
  already received, returns the remainder, and opportunistically fills
  or refreshes the PMV "for free" — at most ``F`` tuples per bcp, each
  stored once however many readers offer it (DESIGN.md §6).

The executor separately measures the *overhead* of the PMV code paths
(O1 + O2 + O3's checking) and the full execution time, which is what
Figures 8-10 of the paper report.

Concurrency: the PMV is an accelerator, never a correctness
dependency.  When the Section 3.6 S lock cannot be granted within the
grace period (a maintenance X lock is in flight), the executor does
NOT fail the query — it *bypasses* the PMV and falls back to plain
blocking execution, counting the event as ``pmv_bypassed_lock``.
Operation O3 runs as one latched critical section on the database's
statement latch, which makes the completion of full execution the
query's serialization point; the optional ``on_o3`` callback fires
inside that section so a checker can record the serialization order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.decompose import DecompositionCache
from repro.core.duplicates import DuplicateSuppressor
from repro.core.metrics import QueryMetrics
from repro.core.view import PartialMaterializedView
from repro.engine.database import Database
from repro.engine.row import Row, project_rows, project_values
from repro.engine.template import Query
from repro.engine.transactions import Transaction
from repro.errors import LockError, PMVError

__all__ = ["PMVQueryResult", "PMVExecutor", "DEFAULT_LOCK_GRACE"]

DEFAULT_LOCK_GRACE = 0.2
"""How long a query waits for the PMV's S lock before bypassing the
view.  Long enough to ride out a maintenance X lock's critical
section, short enough that degraded service stays interactive."""


@dataclass
class PMVQueryResult:
    """Everything one PMV-mediated query produced.

    ``partial_rows`` were delivered immediately from the PMV (O2);
    ``remaining_rows`` came from full execution (O3).  Together they
    are exactly the query's full answer, each tuple delivered once.
    Rows carry the expanded select list ``Ls'``; :meth:`user_values`
    and :meth:`user_rows` project down to the user-visible ``Ls``.
    """

    query: Query
    partial_rows: list[Row] = field(default_factory=list)
    remaining_rows: list[Row] = field(default_factory=list)
    metrics: QueryMetrics = field(default_factory=QueryMetrics)
    complete: bool = True
    """False when a deadline budget cut full execution short: the
    answer is an explicitly-marked *subset* of the full answer (never
    silently incomplete — this flag is the paper's partial-answer
    serving mode made into a first-class result state)."""
    degraded_reason: str | None = None
    """Why the answer is incomplete: ``"deadline-skip"`` (O3 never
    started), ``"deadline-abandon"`` (O3 stopped at a cooperative
    batch checkpoint) or ``"preview"`` (:meth:`PMVExecutor.preview`
    never runs O3).  ``None`` for complete answers."""
    completeness_estimate: float | None = None
    """Rough fraction of the full answer delivered, derived from the
    view's lifetime tuples-per-query — a quality signal for the
    client, not a guarantee.  ``None`` when no basis exists yet."""
    staleness: int | None = None
    """Freshness stamp for async-maintained views: an upper bound on
    how many LSNs the cached contribution may trail the current state
    (``current LSN − applied LSN`` at seal time — the replica-lag
    honesty model applied to CDC maintenance, DESIGN.md §13).  ``0``
    means provably fresh (converged watermark, or the answer came
    entirely from full execution); ``None`` on eagerly-maintained
    views, which are always fresh by construction."""
    applied_lsn: int | None = None
    """The view's applied-LSN watermark the answer was served at
    (``None`` on eagerly-maintained views)."""

    def all_rows(self) -> list[Row]:
        """Every result tuple, partial results first."""
        return self.partial_rows + self.remaining_rows

    def user_values(self) -> list[tuple]:
        """The full answer's value tuples over the original select list
        Ls, partial results first: what the wire envelope carries.
        Column positions are resolved once per row schema, not per row."""
        return project_values(self.all_rows(), self.query.template.select_list)

    def user_rows(self) -> list[Row]:
        """The full answer projected to the original select list Ls:
        the delivered rows themselves where ``Ls' == Ls``, otherwise
        the :meth:`user_values` tuples under one schema per answer."""
        return project_rows(self.all_rows(), self.query.template.select_list)

    def ordered_rows(
        self,
        order_by: Sequence[str],
        descending: bool = False,
        partial_first: bool = True,
    ) -> list[Row]:
        """The answer sorted by ``order_by`` columns (Section 3.6's
        ORDER BY handling).

        With ``partial_first`` (the default), the immediately-available
        partial results are sorted among themselves and presented ahead
        of the (sorted) remainder — the "minor changes in the user
        interface" the paper describes: the user sees an ordered
        prefix right away and an ordered continuation after full
        execution.  With ``partial_first=False`` the complete answer is
        globally sorted (available only after O3, like a traditional
        ORDER BY).
        """

        def sort_key(row: Row):
            return tuple(row[column] for column in order_by)

        if partial_first:
            return sorted(self.partial_rows, key=sort_key, reverse=descending) + sorted(
                self.remaining_rows, key=sort_key, reverse=descending
            )
        return sorted(self.all_rows(), key=sort_key, reverse=descending)

    @property
    def had_partial_results(self) -> bool:
        return bool(self.partial_rows)


DEFAULT_O1_CACHE_SIZE = 256
"""Default capacity of the per-executor O1 decomposition memo."""


def _unseen(tuples, seen: set) -> list:
    """The tuples not yet in ``seen``, in order; adds them to it (the
    ``distinct`` filter of both O2 and the plan stream)."""
    kept = []
    kept_append = kept.append
    seen_add = seen.add
    for t in tuples:
        if t not in seen:
            seen_add(t)
            kept_append(t)
    return kept


class PMVExecutor:
    """Executes queries of one template through its PMV.

    There is one pipeline.  The clocked path moves plain value tuples:
    O2 delivers snapshots of resident entries as value chunks, O3
    consumes the plan's :class:`ColumnBatch` stream and settles the
    delivered-vs-derived ledger with set algebra, and :class:`Row`
    objects are built once, at the :class:`PMVQueryResult` client
    boundary.  A query that must bypass the PMV (S lock denied, view
    beyond its freshness bound) runs the same pipeline with nothing
    probed and nothing refreshed, and the :meth:`execute_without_pmv`
    baseline consumes its plan through the same loop as O3 — so PMV
    overhead is measured against the same operators it rides on.

    ``o1_cache_size``
        Capacity of the LRU decomposition memo (Operation O1 is a pure
        function of the bound ``Cselect``); must be positive.
    ``lock_timeout``
        How long a query waits for the view's S lock before bypassing
        the PMV instead of failing (never raising).
    ``freshness_bound``
        For async-maintained views (DESIGN.md §13): when the view's
        applied-LSN lag exceeds this many positions, ``execute()``
        bypasses the PMV and serves a fresh complete answer from full
        execution (``pmv_bypassed_stale``).  ``None`` (the default)
        serves at any lag — every answer still carries its staleness
        stamp.  Ignored for eagerly-maintained views.
    """

    def __init__(
        self,
        database: Database,
        view: PartialMaterializedView,
        clock=time.perf_counter,
        o1_cache_size: int = DEFAULT_O1_CACHE_SIZE,
        lock_timeout: float = DEFAULT_LOCK_GRACE,
        freshness_bound: int | None = None,
    ) -> None:
        self.database = database
        self.view = view
        self._clock = clock
        self.o1_cache = DecompositionCache(o1_cache_size)
        # Compiled tuple-position matchers for non-basic part groups,
        # keyed by the (hashable, frozen) parts tuple; bounded so a
        # pathological workload cannot grow it without limit.
        self._part_matchers: dict[tuple, Callable[[tuple], bool]] = {}
        # Memoized bcp-key extractor for the O3 refill: every plan of
        # one template shares a root schema, so the extractor compiles
        # once, not once per query.
        self._values_key_of: Callable[[tuple], tuple] | None = None
        self._values_key_schema = None
        self.lock_timeout = lock_timeout
        self.freshness_bound = freshness_bound

    # -- public API --------------------------------------------------------------

    def execute(
        self,
        query: Query,
        txn: Transaction | None = None,
        distinct: bool = False,
        on_partial: Callable[[list[Row]], None] | None = None,
        on_o3: Callable[[Query], None] | None = None,
        deadline=None,
    ) -> PMVQueryResult:
        """Run ``query`` through O1/O2/O3.

        With ``distinct=True`` the Section 3.6 variant is used: only
        distinct tuples are delivered (from both the PMV and full
        execution).  ``on_partial`` is invoked with the partial result
        rows the moment O2 completes — i.e. before full execution
        starts — which is how an application streams the immediate
        results to its user.  ``on_o3`` is invoked (with the query)
        inside the latched full-execution section, i.e. at the query's
        serialization point; the interleaving checker uses it to build
        the serialization op-log.  For a deadline-degraded answer the
        callback still fires inside a latched section — the degraded
        answer's serialization point — so op-log checkers can place it.

        ``deadline`` (a :class:`repro.qos.Deadline`) bounds full
        execution: O1/O2 always run, but O3 is skipped when the budget
        is already spent and abandoned at the next batch checkpoint
        when it runs out mid-scan.  The result then carries
        ``complete=False`` plus a degraded-reason marker; every row
        delivered is still a true result (DESIGN.md §10).

        Never raises :class:`LockError`: if the view's S lock cannot be
        obtained within the grace period, the query silently bypasses
        the PMV (``metrics.bypassed_lock``).
        """
        return self._in_transaction(
            self._execute_locked, query, txn, distinct, on_partial, on_o3, deadline
        )

    def preview(self, query: Query, txn: Transaction | None = None) -> PMVQueryResult:
        """Operations O1+O2 only: the immediately available partial
        results, with full execution *skipped entirely*.

        This is the paper's Benefit 2: a user who finds the partial
        results unsatisfactory (and will refine the query) terminates
        early, sparing the RDBMS the whole blocking execution.  The
        preview performs no base-relation I/O and does not refresh the
        PMV; ``remaining_rows`` stays empty.

        If the S lock cannot be obtained (maintenance in flight) the
        preview degrades to *no* partial results — it never runs a
        blocking execution and never raises :class:`LockError`; the
        event is counted as ``pmv_bypassed_lock``.
        """
        return self._in_transaction(self._preview_locked, query, txn)

    def _in_transaction(self, body, query: Query, txn: Transaction | None, *args):
        """Run ``body(query, txn, *args)`` in the caller's transaction,
        or in a read-only one of our own that ends with the call."""
        if query.template is not self.view.template:
            raise PMVError(
                f"query is from template {query.template.name!r}, "
                f"but this executor serves {self.view.template.name!r}"
            )
        if txn is not None:
            return body(query, txn, *args)
        txn = self.database.begin(read_only=True)
        try:
            return body(query, txn, *args)
        finally:
            txn.commit()  # releases the S lock (strict 2PL)

    def _decompose_grouped(self, query: Query, metrics: QueryMetrics):
        """Operation O1 plus the O2-ready part groups, through the memo."""
        cache = self.o1_cache
        hits_before = cache.hits
        parts, groups = cache.decompose_grouped(query, self.view.discretization)
        metrics.o1_cache_hit = cache.hits > hits_before
        return parts, groups

    def execute_without_pmv(self, query: Query) -> tuple[list[Row], float]:
        """Baseline: traditional blocking execution, no PMV involved.

        Runs the same plan through the same loop as O3, so the
        difference between this and :meth:`execute` is the PMV's own
        work.  Returns ``(rows, execution_seconds)``.
        """
        start = self._clock()
        plan = self.database.plan(query, blocking=True)
        with self.database.statement_latch:
            chunks, _completed, _checking = self._stream(plan)
        schema = plan.root.schema
        rows = [Row(t, schema) for chunk in chunks for t in chunk]
        return rows, self._clock() - start

    # -- the three operations ------------------------------------------------------

    def _lock_view_or_bypass(self, txn: Transaction, metrics: QueryMetrics) -> bool:
        """Take the Section 3.6 S lock on the view, or report a bypass.

        Returns ``True`` with the lock held, or ``False`` (setting
        ``metrics.bypassed_lock``) when the lock was denied or the wait
        timed out.  The LockError never reaches the client: the PMV
        accelerates queries, it must never fail them.
        """
        try:
            txn.lock_shared(self.view.name, wait=True, timeout=self.lock_timeout)
        except LockError:  # includes DeadlockError timeouts
            metrics.bypassed_lock = True
            return False
        return True

    def _beyond_freshness_bound(self) -> bool:
        """Whether the view's applied-LSN lag exceeds the bound."""
        bound = self.freshness_bound
        if bound is None or not self.view.async_maintenance:
            return False
        return self.database.current_lsn() - self.view.applied_lsn > bound

    def _stamp_freshness(self, result: PMVQueryResult) -> None:
        """Stamp an answer with its applied-LSN age (async views only).

        The stamp is a true upper bound: the current LSN is read at (or
        after) the answer's serialization point, so any cached tuple
        delivered was applied at watermark ``applied_lsn`` and can
        trail truth by at most ``staleness`` positions.  An answer that
        bypassed the PMV (stale or lock bypass) came entirely from full
        execution under the latch — fresh as of its serialization
        point, staleness 0.
        """
        view = self.view
        if not view.async_maintenance:
            return
        metrics = result.metrics
        if metrics.bypassed_stale or metrics.bypassed_lock:
            result.applied_lsn = self.database.current_lsn()
            result.staleness = 0
            return
        applied = view.applied_lsn
        result.applied_lsn = applied
        result.staleness = max(0, self.database.current_lsn() - applied)

    def _part_matcher(self, parts: tuple) -> Callable[[tuple], bool]:
        """Compile a non-basic part group into one tuple-position test.

        A cached value tuple satisfies the group iff it lies in any of
        the group's (non-overlapping) condition parts; each dimension
        test is resolved to a ``(position, contains_value)`` pair
        against the view's captured result schema, so the hot loop
        indexes plain tuples instead of resolving column names.  The
        parts tuple is hashable (frozen dataclasses all the way down),
        so compiled matchers are memoized across queries.
        """
        matcher = self._part_matchers.get(parts)
        if matcher is not None:
            return matcher
        schema = self.view.row_schema
        compiled = tuple(
            tuple((schema.position(d.column), d.contains_value) for d in part.dims)
            for part in parts
        )
        if len(compiled) == 1:
            tests = compiled[0]
            if len(tests) == 1:
                position, test = tests[0]

                def matcher(t, position=position, test=test):
                    return test(t[position])

            else:

                def matcher(t, tests=tests):
                    return all(test(t[p]) for p, test in tests)

        else:

            def matcher(t, compiled=compiled):
                return any(
                    all(test(t[p]) for p, test in tests) for tests in compiled
                )

        if len(self._part_matchers) >= 512:
            self._part_matchers.clear()
        self._part_matchers[parts] = matcher
        return matcher

    def _probe(self, groups, metrics: QueryMetrics, distinct: bool = False):
        """Operation O2's probe: the cached tuples that satisfy the query.

        Returns ``(chunks, delivered)``: what the user receives, in
        delivery order, and its tuple count.  A chunk is ``(snapshot,
        snapshot.values)`` when the whole entry matched, so delivery and
        the O3 ledger reuse the snapshot's caches, or ``(None, list)``
        for a filtered delivery.  Another reader's refill before this
        query's O3 installs a new entry and leaves the snapshot as is.

        Several parts may share one containing bcp (a query interval
        split inside a single basic interval); the bcp appears in this
        query's Cselect *once*, so it is referenced and probed once —
        this matters for 2Q, whose A1→Am promotion requires a
        reappearance in a *different* query.
        """
        view = self.view
        chunks: list[tuple] = []
        delivered = 0
        delivered_distinct: set[tuple] = set()
        snapshot = view.snapshot
        chunk_append = chunks.append
        for group in groups:
            key = group.key
            if not view.reference(key).resident_before:
                continue
            metrics.bcp_hits += 1
            entry = snapshot(key)
            if entry is None or not entry.values:
                continue
            # A cached tuple belongs to bcp_j; it satisfies the query's
            # Cselect iff it also lies in one of the (non-overlapping)
            # parts bcp_j contains.
            if group.has_basic:
                # A basic part coincides with bcp_j, so every cached
                # tuple matches: deliver the snapshot whole, no
                # per-tuple predicate work.
                matching = entry.values
            else:
                matcher = self._part_matcher(group.parts)
                matching = [t for t in entry.values if matcher(t)]
                entry = None
            if distinct:
                matching = _unseen(matching, delivered_distinct)
                entry = None
            if matching:
                chunk_append((entry, matching))
                delivered += len(matching)
        return chunks, delivered

    def _deliver_partial(self, chunks: list, result: PMVQueryResult) -> None:
        """Client boundary: materialize the probed chunks as Rows.

        Delivery, not checking — outside the overhead window but inside
        the partial latency the user observes.  A whole-entry chunk
        reuses its snapshot's Rows; filtered chunks build fresh ones.
        """
        row_schema = self.view.row_schema
        partial_extend = result.partial_rows.extend
        for entry, chunk in chunks:
            if entry is not None:
                partial_extend(entry.rows(row_schema))
            else:
                partial_extend([Row(t, row_schema) for t in chunk])

    def _preview_locked(self, query: Query, txn: Transaction) -> PMVQueryResult:
        clock = self._clock
        result = PMVQueryResult(query=query, complete=False, degraded_reason="preview")
        metrics = result.metrics
        start = clock()
        parts, groups = self._decompose_grouped(query, metrics)
        metrics.condition_parts = len(parts)
        # Without the lock the cached contents may be mutated under us,
        # and a preview by definition must not fall back to blocking
        # execution: degrade to an empty preview.
        if self._lock_view_or_bypass(txn, metrics):
            chunks, metrics.partial_tuples = self._probe(groups, metrics)
            self._deliver_partial(chunks, result)
        elapsed = clock() - start
        metrics.partial_latency_seconds = elapsed
        metrics.overhead_seconds = elapsed
        # A preview never claims completeness, so no bound enforcement:
        # the stamp alone tells the client how stale the snapshot may be.
        self._stamp_freshness(result)
        self.view.metrics.record_query(metrics)
        return result

    def _stream(self, plan, deadline=None, distinct: bool = False):
        """The one loop that consumes a plan (caller holds the
        statement latch): O3 — PMV-mediated or bypassed — and the
        :meth:`execute_without_pmv` baseline all run it.

        Returns ``(chunks, completed, checking_seconds)``: the plan's
        output as row-major value-tuple chunks (transposition is
        execution work), whether the stream ran to its end, and the
        clocked cost of the ``distinct`` filter.  ``completed`` is
        False when the deadline ran out at the cooperative checkpoint
        between batches; the chunks collected before that are true
        results.  Deadline checks cost nothing when no deadline is set.
        """
        clock = self._clock
        chunks: list[list[tuple]] = []
        checking = 0.0
        seen: set | None = set() if distinct else None
        for cb in plan.execute_column_batches():
            if deadline is not None and deadline.expired():
                return chunks, False, checking
            chunk = cb.tuples()
            if seen is not None:
                check_start = clock()
                chunk = _unseen(chunk, seen)
                checking += clock() - check_start
            if chunk:
                chunks.append(chunk)
        return chunks, True, checking

    def _finish_degraded(
        self,
        result: PMVQueryResult,
        reason: str,
        on_o3: Callable[[Query], None] | None,
    ) -> PMVQueryResult:
        """Seal an answer whose deadline budget ran out.

        Marks the result as explicitly incomplete, estimates its
        completeness from the view's history, and gives the degraded
        answer a serialization point: ``on_o3`` fires inside a latched
        section (everything delivered is a true result there — cached
        tuples are pinned by the S lock, scanned rows were read under
        the latch), so op-log replays can verify the subset property.
        The latch is re-entrant: an abandoned O3 seals from inside it.
        """
        metrics = result.metrics
        metrics.deadline_degraded = True
        result.complete = False
        result.degraded_reason = reason
        result.completeness_estimate = self._estimate_completeness(result)
        if on_o3 is not None:
            with self.database.statement_latch:
                on_o3(result.query)
        self._stamp_freshness(result)
        self.view.metrics.record_query(metrics)
        return result

    def _estimate_completeness(self, result: PMVQueryResult) -> float | None:
        """Delivered tuples over the view's lifetime tuples/query.

        A coarse quality signal for clients of degraded answers; the
        view's lifetime averages are the only estimator that needs no
        extra bookkeeping.  ``None`` before any history exists.
        """
        expected = self.view.metrics.tuples_per_query()
        if not expected:
            return None
        delivered = len(result.partial_rows) + len(result.remaining_rows)
        return min(1.0, delivered / expected)

    def _execute_locked(
        self,
        query: Query,
        txn: Transaction,
        distinct: bool,
        on_partial: Callable[[list[Row]], None] | None,
        on_o3: Callable[[Query], None] | None,
        deadline,
    ) -> PMVQueryResult:
        """O1/O2/O3 for one query (the caller owns the transaction)."""
        clock = self._clock
        view = self.view
        result = PMVQueryResult(query=query)
        metrics = result.metrics

        # ---- Operation O1: Cselect -> grouped condition parts ------------
        overhead_start = clock()
        parts, groups = self._decompose_grouped(query, metrics)
        metrics.condition_parts = len(parts)

        # ---- Operation O2: deliver cached partial results ----------------
        # Section 3.6's locking protocol: hold an S lock on the PMV from
        # O2 through O3 so no concurrent maintenance can invalidate the
        # partial results already delivered.
        sched = self.database.scheduler
        if sched is not None:
            sched.switch("executor.o2")
        # Beyond the freshness bound the view trails the feed further
        # than the operator tolerates (DESIGN.md §13); a denied lock
        # means maintenance is in flight.  Either way the PMV is
        # bypassed: no partial results, no refresh — the rest of the
        # pipeline is then plain blocking execution, and the answer is
        # complete and correct, it just arrives all at once.
        metrics.bypassed_stale = self._beyond_freshness_bound()
        if metrics.bypassed_stale or not self._lock_view_or_bypass(txn, metrics):
            partial_chunks = []
        else:
            partial_chunks, metrics.partial_tuples = self._probe(
                groups, metrics, distinct
            )
        metrics.overhead_seconds = clock() - overhead_start
        self._deliver_partial(partial_chunks, result)
        metrics.partial_latency_seconds = clock() - overhead_start
        if on_partial is not None:
            # Stream the immediate partial results to the caller before
            # full execution begins (the callback's time is the user's,
            # not PMV overhead).
            on_partial(list(result.partial_rows))

        # ---- Deadline checkpoint: is there budget left for O3? -----------
        # O2 always runs (the PMV's partial answer is the product), but
        # a spent budget means the client asked us not to block: return
        # the partial answer now, explicitly marked incomplete.  The S
        # lock is still held, so every delivered tuple stays a current
        # true result through the degraded answer's serialization point.
        if deadline is not None and deadline.expired():
            return self._finish_degraded(result, "deadline-skip", on_o3)

        # ---- Operation O3: full execution + dedup + PMV refresh ----------
        # The whole of O3 is one critical section on the statement
        # latch: full execution then reads a consistent snapshot and its
        # completion is the query's serialization point (``on_o3``).
        # The S lock is already held, and the latch is never held while
        # waiting on a lock, so this cannot deadlock.
        if sched is not None:
            sched.switch("executor.o3")
        execution_start = clock()
        plan = self.database.plan(query, blocking=True)
        with self.database.statement_latch:
            completed = self._run_o3(result, plan, partial_chunks, distinct, deadline)
            metrics.execution_seconds = clock() - execution_start
            if not completed:
                # Abandoned at a batch checkpoint: seal the degraded
                # answer here, inside the latch — this instant is its
                # serialization point, and the rows scanned so far are
                # true results at it.
                return self._finish_degraded(result, "deadline-abandon", on_o3)
            if on_o3 is not None:
                on_o3(query)
        self._stamp_freshness(result)
        view.metrics.record_query(metrics)
        return result

    def _run_o3(
        self,
        result: PMVQueryResult,
        plan,
        partial_chunks: list,
        distinct: bool,
        deadline,
    ) -> bool:
        """The body of Operation O3 (caller holds the statement latch).

        Full execution streams value-tuple chunks (:meth:`_stream`);
        the delivered-vs-derived ledger is settled once, after the
        stream:

        - when both sides are duplicate-free (the overwhelmingly common
          case — and always true under ``distinct``), plain set algebra
          is exact: ``fresh = o3 − partial`` in plan order, and a
          non-empty ``partial − o3`` means the PMV served stale tuples
          (the :meth:`DuplicateSuppressor.assert_empty` invariant);
        - otherwise an exact multiset fallback replays the chunks
          through a :class:`DuplicateSuppressor` in value-tuple form.

        ``partial`` is the snapshots O2 delivered, never the entries as
        they are now.  Each bcp's fresh tuples then go to one
        :meth:`PartialMaterializedView.refill` (not when the view was
        bypassed).  Returns False when a deadline abandoned the stream
        at a batch checkpoint; the chunks collected before expiry are
        still consumed and refilled — they were delivered work.
        """
        clock = self._clock
        view = self.view
        metrics = result.metrics
        partial_count = metrics.partial_tuples
        o3_chunks, completed, checking = self._stream(plan, deadline, distinct)
        o3_count = sum(map(len, o3_chunks))

        # ---- The ledger: one clocked settlement for the whole stream -----
        # Transactional consistency invariant: everything delivered in
        # O2 must have been re-derived by O3.  (Holds under concurrency
        # too: the S lock excludes deletions of cached tuples until the
        # transaction ends, and insertions only add O3 rows.)  It is
        # checked only when the stream completed — an abandoned run
        # legitimately never reached some delivered tuples.
        check_start = clock()
        fresh: list[tuple] = []
        if partial_count == 0:
            for chunk in o3_chunks:
                fresh.extend(chunk)
        else:
            # Delivered side: a whole-entry chunk contributes its
            # snapshot's cached frozenset — set-to-set merges reuse
            # stored hashes, so a hot entry's tuples are hashed once per
            # snapshot, not once per query.  Duplicates a frozenset
            # collapses leave the set shorter than partial_count, which
            # sends the ledger to the multiset replay below.
            partial_set: "set | frozenset"
            if len(partial_chunks) == 1:
                entry, chunk = partial_chunks[0]
                partial_set = entry.value_set() if entry is not None else set(chunk)
            else:
                partial_set = set()
                partial_update = partial_set.update
                for entry, chunk in partial_chunks:
                    partial_update(entry.value_set() if entry is not None else chunk)
            o3_set: set = set()
            for chunk in o3_chunks:
                o3_set.update(chunk)
            if len(partial_set) == partial_count and len(o3_set) == o3_count:
                # All-distinct on both sides: set difference is exact.
                need = o3_set - partial_set
                n_need = len(need)
                if n_need == o3_count:
                    # Nothing was delivered from this stream (cold
                    # bcps): every tuple is fresh, in plan order.
                    for chunk in o3_chunks:
                        fresh.extend(chunk)
                elif n_need:
                    fresh = [t for chunk in o3_chunks for t in chunk if t in need]
                # |partial − o3| = |partial| − |o3| + |need| when both
                # sides are duplicate-free: the invariant check is
                # count arithmetic, no second difference pass.
                if completed and partial_count - o3_count + n_need:
                    if view.async_maintenance:
                        # Async-maintained views legitimately serve
                        # bounded-stale extras: a cold delete not yet
                        # drained leaves its derived tuples cached.
                        # Each leftover was a true result at some LSN ≥
                        # the view's watermark; count it, don't raise.
                        metrics.stale_partial_tuples = (
                            partial_count - o3_count + n_need
                        )
                    else:
                        leftover = partial_set - o3_set
                        raise PMVError(
                            f"DS not empty after O3: {len(leftover)} tuple(s) "
                            f"left, e.g. {next(iter(leftover))!r}; the PMV "
                            "delivered results full execution did not produce"
                        )
            else:
                # Duplicates present somewhere: exact multiset replay.
                ds = DuplicateSuppressor()
                add_batch = ds.add_batch
                for _entry, chunk in partial_chunks:
                    add_batch(chunk)
                consume_batch = ds.consume_batch
                for chunk in o3_chunks:
                    fresh.extend(consume_batch(chunk))
                if completed:
                    if view.async_maintenance:
                        metrics.stale_partial_tuples = len(ds)
                    else:
                        ds.assert_empty()

        # ---- Refill the PMV "for free": one call per bcp ----------------
        if fresh and not (metrics.bypassed_lock or metrics.bypassed_stale):
            schema = plan.root.schema
            key_of = self._values_key_of
            if key_of is None or self._values_key_schema is not schema:
                key_of = view.values_key_extractor(schema)
                self._values_key_of = key_of
                self._values_key_schema = schema
            by_key: dict[tuple, list[tuple]] = {}
            for t in fresh:
                by_key.setdefault(key_of(t), []).append(t)
            for key, tuples in by_key.items():
                view.refill(key, tuples, schema)
        metrics.overhead_seconds += checking + (clock() - check_start)

        # ---- Client boundary: materialize the remaining Rows -------------
        # Building the answer's Rows is work plain execution does too
        # (execute_without_pmv), so it counts as execution time, not
        # PMV overhead.
        if fresh:
            schema = plan.root.schema
            result.remaining_rows = [Row(t, schema) for t in fresh]
        metrics.remaining_tuples = len(fresh)
        return completed
