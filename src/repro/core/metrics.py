"""Counters and timings for the PMV layer.

Collects exactly the quantities Section 4 reports: the per-query hit
probability (a *partial* hit — any one bcp of the query resident counts,
Section 4.1), the overhead of the PMV code paths (Operations O1 + O2
plus O3's duplicate checking, Figures 8-10), and maintenance work.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

__all__ = ["QueryMetrics", "PMVMetrics", "QoSMetrics", "NetMetrics"]


@dataclass
class QueryMetrics:
    """Measurements for one query handled through the PMV."""

    condition_parts: int = 0
    bcp_hits: int = 0
    partial_tuples: int = 0
    remaining_tuples: int = 0
    overhead_seconds: float = 0.0
    partial_latency_seconds: float = 0.0
    execution_seconds: float = 0.0
    o1_cache_hit: bool | None = None
    """Whether O1 was answered from the decomposition memo.  ``None``
    on metrics no executor has filled in (O1 has not run)."""
    bypassed_lock: bool = False
    """The view's S lock was unavailable, so the query skipped the PMV
    and ran as a plain blocking execution (or an empty preview)."""
    deadline_degraded: bool = False
    """The query's deadline budget ran out before full execution
    finished: Operation O3 was skipped (or abandoned at a batch
    checkpoint) and the answer was returned incomplete, with the
    ``complete=False`` marker."""
    bypassed_stale: bool = False
    """The view's applied-LSN lag exceeded the executor's
    ``freshness_bound``, so the query skipped the PMV and ran as a
    plain blocking execution — a fresh, complete answer."""
    stale_partial_tuples: int = 0
    """Cached tuples delivered in O2 that full execution did not
    re-derive: bounded-stale extras an async-maintained view may serve
    (each was a true result at some LSN ≥ the view's watermark).  An
    eagerly-maintained view raises instead of counting."""

    @property
    def hit(self) -> bool:
        """The paper's per-query hit: at least one bcp was resident."""
        return self.bcp_hits > 0

    @property
    def total_tuples(self) -> int:
        return self.partial_tuples + self.remaining_tuples


@dataclass
class PMVMetrics:
    """Aggregated measurements over a PMV's lifetime."""

    queries: int = 0
    query_hits: int = 0
    partial_tuples: int = 0
    remaining_tuples: int = 0
    overhead_seconds: float = 0.0
    execution_seconds: float = 0.0
    tuples_cached: int = 0
    tuples_rejected_full: int = 0
    entries_evicted: int = 0
    o1_cache_hits: int = 0
    o1_cache_misses: int = 0
    maintenance_inserts_ignored: int = 0
    maintenance_deletes: int = 0
    maintenance_updates_skipped: int = 0
    maintenance_tuples_removed: int = 0
    maintenance_failsafe_clears: int = 0
    """Times a failure mid-maintenance forced the fail-safe: the whole
    PMV is cleared, because an empty PMV is always a correct PMV while
    a partially-maintained one may serve stale tuples."""
    pmv_bypassed_lock: int = 0
    """Queries that could not get the view's S lock and degraded to a
    plain blocking execution (or an empty preview) instead of failing."""
    maintenance_lock_retries: int = 0
    """Times a maintenance X-lock request lost to readers and was
    retried after a backoff before succeeding or giving up."""
    qos_partial_answers: int = 0
    """Deadline-degraded answers this view served: the PMV's partial
    results were returned as the whole (explicitly incomplete) answer
    because the query's deadline budget ran out before O3 finished."""
    maintenance_deferred: int = 0
    """Relevant changes routed cold by the heavy-light splitter: no
    write-path X lock, the background drain reads the delta from the
    log (async mode only)."""
    maintenance_async_applied: int = 0
    """Deltas the background drain applied to this view."""
    pmv_bypassed_stale: int = 0
    """Queries that found the view's applied-LSN lag beyond the
    freshness bound and degraded to a plain blocking execution."""
    stale_partial_tuples: int = 0
    """Total bounded-stale extras delivered by O2 across queries (see
    :attr:`QueryMetrics.stale_partial_tuples`)."""
    swallowed_errors: int = 0
    """Secondary exceptions a fail-safe path consumed (e.g. the
    maintenance fail-safe clear itself failing while handling the
    original error).  A non-zero value means the system degraded
    silently somewhere — each swallow is deliberate, but must never be
    invisible."""
    per_query: list[QueryMetrics] = field(default_factory=list)
    keep_per_query: bool = False
    # Serializes record_query across concurrent client threads; the
    # field tricks keep the dataclass hashable/printable as before.
    _record_mutex: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record_query(self, metrics: QueryMetrics) -> None:
        with self._record_mutex:
            self.queries += 1
            if metrics.hit:
                self.query_hits += 1
            self.partial_tuples += metrics.partial_tuples
            self.remaining_tuples += metrics.remaining_tuples
            self.overhead_seconds += metrics.overhead_seconds
            self.execution_seconds += metrics.execution_seconds
            if metrics.o1_cache_hit is True:
                self.o1_cache_hits += 1
            elif metrics.o1_cache_hit is False:
                self.o1_cache_misses += 1
            if metrics.bypassed_lock:
                self.pmv_bypassed_lock += 1
            if metrics.bypassed_stale:
                self.pmv_bypassed_stale += 1
            self.stale_partial_tuples += metrics.stale_partial_tuples
            if metrics.deadline_degraded:
                self.qos_partial_answers += 1
            if self.keep_per_query:
                self.per_query.append(metrics)

    def snapshot(self) -> dict[str, int | float]:
        """A consistent counter snapshot, read under the record mutex.

        Concurrent clients bump these counters through
        :meth:`record_query`; reading them attribute-by-attribute can
        observe a torn multi-counter state.  ``stats()`` surfaces and
        bench JSON reports go through this instead.
        """
        with self._record_mutex:
            return {
                "queries": self.queries,
                "query_hits": self.query_hits,
                "partial_tuples": self.partial_tuples,
                "remaining_tuples": self.remaining_tuples,
                "overhead_seconds": self.overhead_seconds,
                "execution_seconds": self.execution_seconds,
                "tuples_cached": self.tuples_cached,
                "entries_evicted": self.entries_evicted,
                "maintenance_failsafe_clears": self.maintenance_failsafe_clears,
                "pmv_bypassed_lock": self.pmv_bypassed_lock,
                "maintenance_lock_retries": self.maintenance_lock_retries,
                "maintenance_deferred": self.maintenance_deferred,
                "maintenance_async_applied": self.maintenance_async_applied,
                "pmv_bypassed_stale": self.pmv_bypassed_stale,
                "stale_partial_tuples": self.stale_partial_tuples,
                "qos_partial_answers": self.qos_partial_answers,
                "swallowed_errors": self.swallowed_errors,
            }

    def tuples_per_query(self) -> float | None:
        """Mean tuples delivered per query (partial + remaining), read
        under the record mutex like :meth:`snapshot` but touching only
        the three counters it needs; ``None`` before any query."""
        with self._record_mutex:
            if not self.queries:
                return None
            return (self.partial_tuples + self.remaining_tuples) / self.queries

    @property
    def hit_probability(self) -> float:
        """Fraction of queries that received some partial results."""
        return self.query_hits / self.queries if self.queries else 0.0

    @property
    def mean_overhead_seconds(self) -> float:
        return self.overhead_seconds / self.queries if self.queries else 0.0

    @property
    def mean_execution_seconds(self) -> float:
        return self.execution_seconds / self.queries if self.queries else 0.0

    @property
    def o1_cache_hit_ratio(self) -> float:
        """Fraction of memo-enabled O1 runs served from the cache."""
        total = self.o1_cache_hits + self.o1_cache_misses
        return self.o1_cache_hits / total if total else 0.0

    def reset(self) -> None:
        """Zero every counter (used between warm-up and measurement)."""
        self.queries = 0
        self.query_hits = 0
        self.partial_tuples = 0
        self.remaining_tuples = 0
        self.overhead_seconds = 0.0
        self.execution_seconds = 0.0
        self.tuples_cached = 0
        self.tuples_rejected_full = 0
        self.entries_evicted = 0
        self.o1_cache_hits = 0
        self.o1_cache_misses = 0
        self.maintenance_inserts_ignored = 0
        self.maintenance_deletes = 0
        self.maintenance_updates_skipped = 0
        self.maintenance_tuples_removed = 0
        self.maintenance_failsafe_clears = 0
        self.pmv_bypassed_lock = 0
        self.maintenance_lock_retries = 0
        self.maintenance_deferred = 0
        self.maintenance_async_applied = 0
        self.pmv_bypassed_stale = 0
        self.stale_partial_tuples = 0
        self.qos_partial_answers = 0
        self.swallowed_errors = 0
        self.per_query.clear()


@dataclass
class QoSMetrics:
    """Serving-stack-wide QoS counters (one per :class:`ServingGate`).

    Admission and degradation decisions happen before a query is routed
    to any one view, so these counters live above :class:`PMVMetrics`.
    All writes and snapshot reads go through the record mutex, exactly
    like the per-view counters, so concurrent clients and the bench
    reporter always see a consistent state.
    """

    admitted: int = 0
    shed: int = 0
    shed_by_reason: dict[str, int] = field(default_factory=dict)
    partial_answers: int = 0
    complete_answers: int = 0
    deadline_abandons: int = 0
    """O3 runs abandoned at a cooperative batch checkpoint (a strict
    subset of ``partial_answers``; the rest skipped O3 outright)."""
    state_transitions: int = 0
    state: str = "NORMAL"
    breaker_state: str = "closed"
    breaker_opens: int = 0
    swallowed_errors: int = 0
    _record_mutex: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record_admitted(self) -> None:
        with self._record_mutex:
            self.admitted += 1

    def record_shed(self, reason: str) -> None:
        with self._record_mutex:
            self.shed += 1
            self.shed_by_reason[reason] = self.shed_by_reason.get(reason, 0) + 1

    def record_answer(self, complete: bool, abandoned: bool = False) -> None:
        with self._record_mutex:
            if complete:
                self.complete_answers += 1
            else:
                self.partial_answers += 1
                if abandoned:
                    self.deadline_abandons += 1

    def record_transition(self, state: str) -> None:
        with self._record_mutex:
            self.state = state
            self.state_transitions += 1

    def record_breaker(self, state: str) -> None:
        with self._record_mutex:
            if state == "open" and self.breaker_state != "open":
                self.breaker_opens += 1
            self.breaker_state = state

    def record_swallowed(self) -> None:
        with self._record_mutex:
            self.swallowed_errors += 1

    def snapshot(self) -> dict:
        """Consistent gauge/counter snapshot (under the record mutex)."""
        with self._record_mutex:
            return {
                "qos_admitted": self.admitted,
                "qos_shed": self.shed,
                "qos_shed_by_reason": dict(self.shed_by_reason),
                "qos_partial_answers": self.partial_answers,
                "qos_complete_answers": self.complete_answers,
                "qos_deadline_abandons": self.deadline_abandons,
                "qos_state_transitions": self.state_transitions,
                "qos_state": self.state,
                "breaker_state": self.breaker_state,
                "breaker_opens": self.breaker_opens,
                "swallowed_errors": self.swallowed_errors,
            }


@dataclass
class NetMetrics:
    """Network serving tier counters (one per :class:`repro.net.NetServer`).

    Request counters split by op so the stats endpoint shows the remote
    workload mix; the dedup counters are the observable face of the
    at-most-once write contract (a retried write that was already
    applied shows up as a ``dedup_hit``, never as a second row).
    """

    connections_opened: int = 0
    connections_closed: int = 0
    requests: int = 0
    requests_by_op: dict[str, int] = field(default_factory=dict)
    errors: int = 0
    retryable_errors: int = 0
    shed: int = 0
    dedup_hits: int = 0
    dedup_rebuilds: int = 0
    replica_reads: int = 0
    replica_fallbacks: int = 0
    monotonic_fallbacks: int = 0
    writes_applied: int = 0
    connections_refused: int = 0
    _record_mutex: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record_connection(self, opened: bool) -> None:
        with self._record_mutex:
            if opened:
                self.connections_opened += 1
            else:
                self.connections_closed += 1

    def record_request(self, op: str) -> None:
        with self._record_mutex:
            self.requests += 1
            self.requests_by_op[op] = self.requests_by_op.get(op, 0) + 1

    def record_error(self, retryable: bool = False, shed: bool = False) -> None:
        with self._record_mutex:
            self.errors += 1
            if retryable:
                self.retryable_errors += 1
            if shed:
                self.shed += 1

    def record_dedup_hit(self) -> None:
        with self._record_mutex:
            self.dedup_hits += 1

    def record_dedup_rebuild(self) -> None:
        with self._record_mutex:
            self.dedup_rebuilds += 1

    def record_replica_read(self, fallback: bool = False) -> None:
        with self._record_mutex:
            self.replica_reads += 1
            if fallback:
                self.replica_fallbacks += 1

    def record_monotonic_fallback(self) -> None:
        """A replica read was re-routed to the primary because the
        replica's watermark trailed the session's min_lsn token."""
        with self._record_mutex:
            self.monotonic_fallbacks += 1

    def record_connection_refused(self) -> None:
        """The server's refuse_connections hook (nemesis partition
        seam) turned an accepted connection away."""
        with self._record_mutex:
            self.connections_refused += 1

    def record_write_applied(self) -> None:
        with self._record_mutex:
            self.writes_applied += 1

    def snapshot(self) -> dict:
        with self._record_mutex:
            return {
                "net_connections_opened": self.connections_opened,
                "net_connections_closed": self.connections_closed,
                "net_requests": self.requests,
                "net_requests_by_op": dict(self.requests_by_op),
                "net_errors": self.errors,
                "net_retryable_errors": self.retryable_errors,
                "net_shed": self.shed,
                "net_dedup_hits": self.dedup_hits,
                "net_dedup_rebuilds": self.dedup_rebuilds,
                "net_replica_reads": self.replica_reads,
                "net_replica_fallbacks": self.replica_fallbacks,
                "net_monotonic_fallbacks": self.monotonic_fallbacks,
                "net_writes_applied": self.writes_applied,
                "net_connections_refused": self.connections_refused,
            }
