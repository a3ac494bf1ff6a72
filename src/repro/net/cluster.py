"""The cluster front-end: one endpoint over a replicated fleet.

:class:`ClusterFrontEnd` is what the socket server actually serves
through.  It composes three existing layers without changing their
contracts:

- **reads** go through the :class:`~repro.qos.gate.ServingGate`
  (admission, deadlines, governor) on the primary, or — when the
  client opts into bounded staleness — round-robin across
  :class:`~repro.replication.node.ReplicaNode` standbys, with the
  staleness stamp surfaced in the response envelope and an automatic
  fall-back to the primary when every replica is beyond the bound
  (the read-replica pattern: offload, never lie);
- **writes** go to the current primary under gate admission, carry the
  client's idempotency key into the WAL, and are acknowledged only
  once the semi-sync watermark covers them (some replica durably
  applied the statement) — so an acked write survives failover by
  protocol;
- **failover** is the existing
  :class:`~repro.replication.FailoverCoordinator` protocol; the
  front-end reacts by adopting the promoted primary's epoch and
  rebuilding its dedup table from the promoted WAL
  (:meth:`~repro.replication.node.PrimaryNode.idempotency_keys`),
  which by the semi-sync rule contains every key the old timeline
  acknowledged.  Clients see a retryable blip, never a duplicate.

At-most-once writes, end to end: the client stamps each DML with
``client_id:seq``; the front-end's :class:`IdempotencyTable` answers
retries without re-applying; the key rides in the WAL payload so the
table is rebuildable from whichever log survives.  A write that was
applied but never acked (connection dropped mid-response) is the case
the whole mechanism exists for — the retry hits the dedup table (or,
post-failover, the rebuilt one) and acks without a second application.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.core.metrics import NetMetrics
from repro.errors import (
    OverloadError,
    ReplicaLagError,
    WriteUnacknowledgedError,
)

__all__ = ["ClusterFrontEnd", "IdempotencyTable"]

ACK_RETRIES = 3
"""Ship pumps one write waits through for its semi-sync ack."""


class IdempotencyTable:
    """Dedup table for DML keyed on the client's ``client_id:seq``.

    In-memory for speed; authoritative only together with the WAL —
    :meth:`rebuild` rescans a promoted node's log after failover, so
    the table never outlives the timeline that produced it.
    """

    def __init__(self) -> None:
        self._applied: dict[str, int] = {}
        self._mutex = threading.Lock()

    def seen(self, key: str) -> int | None:
        """The LSN ``key`` was applied at, or None if never applied."""
        with self._mutex:
            return self._applied.get(key)

    def record(self, key: str, lsn: int) -> None:
        with self._mutex:
            self._applied[key] = lsn

    def rebuild(self, keys: dict[str, int]) -> int:
        """Replace the table with the WAL-derived key set; returns its size."""
        with self._mutex:
            self._applied = dict(keys)
            return len(self._applied)

    def __len__(self) -> int:
        with self._mutex:
            return len(self._applied)


class ClusterFrontEnd:
    """Routes reads and writes over a (possibly replicated) fleet.

    Two shapes:

    - **single-node**: ``ClusterFrontEnd(gate=gate)`` — everything goes
      through the gate; writes still get idempotency-key dedup (keys
      land in the WAL when one is attached) but there is no semi-sync
      ack and no failover;
    - **replicated**: ``ClusterFrontEnd(gate=gate, coordinator=coord)``
      — the coordinator owns primary identity; bounded-staleness reads
      round-robin over ``coordinator.replicas``.

    Every write pumps the primary's WAL (up to :data:`ACK_RETRIES`
    times) so the semi-sync ack is reachable without a background pump.
    """

    def __init__(
        self,
        gate,
        coordinator=None,
        metrics: NetMetrics | None = None,
        staleness_bound: int = 0,
    ) -> None:
        self.gate = gate
        self.coordinator = coordinator
        self.metrics = metrics or NetMetrics()
        self.staleness_bound = staleness_bound
        self.dedup = IdempotencyTable()
        self._write_mutex = threading.Lock()
        self._rr = 0
        self._epoch = coordinator.primary.epoch if coordinator is not None else 0
        if coordinator is not None:
            coordinator.add_failover_listener(self._on_failover)

    # -- fleet identity --------------------------------------------------------

    @property
    def database(self):
        if self.coordinator is not None:
            return self.coordinator.primary.database
        return self.gate.manager.database

    @property
    def epoch(self) -> int:
        return self._epoch

    def _on_failover(self, new_primary) -> None:
        """Adopt a promoted primary: its WAL is the new timeline's
        ground truth for which client writes happened."""
        with self._write_mutex:
            self._adopt(new_primary)

    def _adopt(self, primary) -> None:
        rebuilt = self.dedup.rebuild(primary.idempotency_keys())
        self._epoch = primary.epoch
        self.metrics.record_dedup_rebuild()
        del rebuilt  # size available via len(self.dedup) when needed

    def _maybe_adopt(self) -> None:
        """Catch up with a failover this front-end has not seen yet
        (defensive: the listener normally already adopted it)."""
        if self.coordinator is not None and self.coordinator.primary.epoch != self._epoch:
            self._adopt(self.coordinator.primary)

    # -- reads -----------------------------------------------------------------

    def execute_query(
        self,
        query,
        deadline=None,
        staleness_bound: int | None = None,
        prefer_replica: bool = False,
        min_lsn: int | None = None,
        token_epoch: int | None = None,
    ) -> dict[str, Any]:
        """Run one read; returns ``(result, served_by, replica_lag,
        epoch)``-shaped metadata alongside the result (as a dict for
        the server to envelope).

        ``prefer_replica`` with a staleness bound routes to a standby;
        a standby beyond the bound falls back to the primary path, so
        the client always gets an answer within its freshness contract.

        ``min_lsn`` is the session's monotonic-read token: a replica
        whose applied watermark trails it would show the session an
        older state than one it already observed, so the read falls
        back to the primary instead.  The token is only honoured when
        ``token_epoch`` matches the current serving epoch — a
        pre-failover LSN floor is meaningless against the promoted
        timeline (and could even be unsatisfiable).
        """
        if token_epoch is not None and token_epoch != self._epoch:
            min_lsn = None
        if prefer_replica and self.coordinator is not None and self.coordinator.replicas:
            # The lag stamp below is measured against this primary's
            # log: an ISOLATED primary can no longer vouch for it.
            self.gate.check_serving()
            bound = self.staleness_bound if staleness_bound is None else staleness_bound
            replica = self._pick_replica()
            replica.note_watermark(self.database.wal.last_lsn)
            if min_lsn is not None and replica.applied_lsn < min_lsn:
                self.metrics.record_monotonic_fallback()
            else:
                try:
                    result = replica.serve(
                        query, staleness_bound=bound, deadline=deadline
                    )
                    self.metrics.record_replica_read()
                    return {
                        "result": result,
                        "served_by": replica.name,
                        "replica_lag": replica.lag,
                        "epoch": self._epoch,
                        # Eagerly-maintained views carry no watermark of
                        # their own (fresh by construction), so the
                        # serving node's applied LSN is the answer's
                        # honest logical timestamp; async answers keep
                        # their (older) view watermark.
                        "applied_lsn": (
                            replica.applied_lsn
                            if result.applied_lsn is None
                            else result.applied_lsn
                        ),
                    }
                except ReplicaLagError:
                    self.metrics.record_replica_read(fallback=True)
        result = self.gate.execute(query, deadline=deadline)
        served_by = (
            self.coordinator.primary.name if self.coordinator is not None else "primary"
        )
        return {
            "result": result,
            "served_by": served_by,
            "replica_lag": None,
            "epoch": self._epoch,
            "applied_lsn": (
                self.database.current_lsn()
                if result.applied_lsn is None
                else result.applied_lsn
            ),
        }

    def _pick_replica(self):
        replicas = self.coordinator.replicas
        self._rr = (self._rr + 1) % len(replicas)
        return replicas[self._rr]

    # -- writes ----------------------------------------------------------------

    def apply_write(
        self,
        idem: str | None,
        apply: Callable[[Any, str | None], int],
        deadline=None,
    ) -> dict[str, Any]:
        """Apply one DML statement at most once.

        ``apply(database, idem)`` performs the statement against the
        current primary's database and returns its WAL LSN.  The
        sequence — dedup check, admission, apply, dedup record, ship to
        the semi-sync ack — runs under the write mutex so a retry never
        races its original.  Raises
        :class:`~repro.errors.WriteUnacknowledgedError` when no replica
        confirms the write (the statement *is* applied and recorded;
        the client's retry acks it via the dedup table).
        """
        with self._write_mutex:
            self._maybe_adopt()
            if idem is not None:
                lsn = self.dedup.seen(idem)
                if lsn is not None:
                    # Already applied (possibly on the previous timeline,
                    # surviving via the WAL rebuild): just make sure the
                    # semi-sync ack covers it, never apply again.
                    self.metrics.record_dedup_hit()
                    self._await_ack(lsn)
                    return self._write_envelope(lsn, duplicate=True)
            slot = self.gate.admit_write(deadline=deadline)
            try:
                lsn = apply(self.database, idem)
            finally:
                slot.release()
            self.metrics.record_write_applied()
            if idem is not None:
                self.dedup.record(idem, lsn)
            self._await_ack(lsn)
            return self._write_envelope(lsn, duplicate=False)

    def _write_envelope(self, lsn: int, duplicate: bool) -> dict[str, Any]:
        served_by = (
            self.coordinator.primary.name if self.coordinator is not None else "primary"
        )
        return {
            "ok": True,
            "duplicate": duplicate,
            "lsn": lsn,
            "epoch": self._epoch,
            "served_by": served_by,
        }

    def _await_ack(self, lsn: int) -> None:
        """Pump replication until the semi-sync watermark covers ``lsn``."""
        if self.coordinator is None:
            return
        primary = self.coordinator.primary
        if primary.acked_lsn >= lsn:
            return
        for _ in range(ACK_RETRIES):
            primary.ship()
            if primary.acked_lsn >= lsn:
                return
        raise WriteUnacknowledgedError(
            f"write at LSN {lsn} applied but unacknowledged "
            f"(semi-sync watermark {primary.acked_lsn})"
        )

    # -- introspection ---------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        report = self.gate.stats()
        report.update(self.metrics.snapshot())
        report["dedup_keys"] = len(self.dedup)
        report["epoch"] = self._epoch
        if self.coordinator is not None:
            report["cluster"] = self.coordinator.stats()
        return report


def classify_error(exc: BaseException) -> dict[str, Any]:
    """Map an engine/cluster exception to a response-envelope error.

    ``retryable`` means the client may safely try again (idempotent
    ops always; DML because of idempotency keys): fenced/deposed
    primaries, replication hiccups (including a lease-isolated node —
    :class:`~repro.errors.NodeIsolatedError` is a ``ReplicationError``),
    socket timeouts, unacknowledged writes, and sheds (which also set
    ``shed`` so clients can apply backpressure policy instead of
    hammering).
    """
    from repro.errors import (
        NetTimeoutError,
        ReplicationError,
        StaleEpochError,
        WALFencedError,
    )

    if isinstance(exc, OverloadError):
        return {
            "ok": False,
            "error": str(exc),
            "error_type": type(exc).__name__,
            "retryable": True,
            "shed": True,
            "reason": exc.reason,
        }
    retryable = isinstance(
        exc,
        (
            WALFencedError,
            StaleEpochError,
            ReplicationError,
            WriteUnacknowledgedError,
            NetTimeoutError,
        ),
    )
    return {
        "ok": False,
        "error": str(exc),
        "error_type": type(exc).__name__,
        "retryable": retryable,
        "shed": False,
    }
