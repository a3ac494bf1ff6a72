"""Primary and replica nodes for WAL-shipping replication.

A :class:`PrimaryNode` wraps the serving database (and optionally its
PMV fleet) and pumps its WAL down every attached
:class:`~repro.replication.ship.ReplicationLink`.  A
:class:`ReplicaNode` owns an initially-empty database of its own and
applies the shipped log through the exact
:func:`~repro.engine.wal.replay_record` path crash recovery uses — the
two cannot drift apart — then appends the shipped record itself, frame
unchanged, to its local WAL (:meth:`~repro.engine.wal.WriteAheadLog
.adopt`): a promoted replica's log is a verbatim continuation of the
primary's history, and each record is encoded once in the cluster.

Warm-standby PMVs: a replica mirrors the primary's view fleet
(:meth:`ReplicaNode.mirror_views`, driven by
:meth:`~repro.core.manager.PMVManager.view_specs`) and keeps the
maintainers attached, so every applied delta maintains the standby's
cache exactly as it maintained the primary's — the hot set survives
failover instead of restarting cold.  Replica reads go through
:meth:`ReplicaNode.serve` under a bounded-staleness contract: behind
the primary's watermark, the answer is explicitly flagged
``complete=False, degraded_reason="replica_lag"``; beyond the caller's
staleness bound, the read is refused with
:class:`~repro.errors.ReplicaLagError` instead of silently serving
ancient data.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.core.manager import PMVManager
from repro.engine.database import Database
from repro.engine.snapshot import restore_snapshot, snapshot_from_json
from repro.engine.wal import LogKind, LogRecord, WriteAheadLog, replay_record
from repro.errors import (
    NodeIsolatedError,
    ReplicaLagError,
    ReplicationError,
    StaleEpochError,
)
from repro.faults.inject import FaultInjector
from repro.replication.lease import Lease
from repro.replication.ship import ReplicationLink, ShippedRecord

__all__ = ["PrimaryNode", "ReplicaNode"]


class PrimaryNode:
    """The write side: ships its WAL to the attached replicas.

    Shipping is pull-based and deterministic: nothing moves until
    :meth:`ship` pumps, which sends every record past each link's
    acked watermark and then reads the ack back.  Re-pumping after a
    drop, duplicate, reorder, or healed partition converges the
    replicas — retransmission is just "still past the watermark".
    """

    def __init__(
        self,
        database: Database,
        manager: PMVManager | None = None,
        epoch: int = 1,
        name: str = "primary",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if database.wal is None:
            raise ReplicationError("a replicating primary needs a WAL")
        self.database = database
        self.manager = manager
        self.epoch = epoch
        self.name = name
        self.links: list[ReplicationLink] = []
        # Lease gating (DESIGN.md §16): a coordinator grants the lease;
        # a standalone primary has none and serves ungated.
        self._clock = clock
        self.lease: Lease | None = None
        self.isolated_refusals = 0

    def attach_replica(
        self, replica: "ReplicaNode", injector: FaultInjector | None = None
    ) -> ReplicationLink:
        """Open a link to ``replica`` (optionally with a fault seam).

        The link immediately registers its (zero) watermark with the
        WAL's retention registry: from this moment segment reclamation
        cannot retire records the replica has not acknowledged beyond
        reach — a lagging replica re-reads them from the archive
        instead of being forced into a snapshot bootstrap.
        """
        replica.observe_epoch(self.epoch)
        link = ReplicationLink(replica, injector=injector)
        self.links.append(link)
        self._pin_retention(link)
        return link

    def _pin_retention(self, link: ReplicationLink) -> None:
        wal = self.database.wal
        if wal is not None:
            wal.retention.update(f"ship:{link.replica.name}", link.acked_lsn)

    def ship(self) -> int:
        """Pump every link once; returns the number of sends issued.

        Partitioned links are skipped (nothing flows on a down link);
        after healing, the next pump re-ships from their watermark.
        Reading ``after_lsn=read_ack()`` transparently falls back to
        the WAL's archived segments when the ack trails the reclaimed
        prefix (the retransmit-from-archive path); each pump then
        republishes the link's fresh ack to the retention registry.
        """
        sends = 0
        watermark = self.database.wal.last_lsn
        for link in self.links:
            if link.partitioned:
                continue
            for record in self.database.wal.records(after_lsn=link.read_ack()):
                link.send(ShippedRecord(self.epoch, watermark, record.frame).to_wire())
                sends += 1
                if link.partitioned:
                    break  # the send itself took the link down
            link.read_ack()
            self._pin_retention(link)
        return sends

    @property
    def acked_lsn(self) -> int:
        """Highest LSN at least one replica has durably applied — the
        semi-synchronous acknowledgement watermark.  A write at or
        below this LSN survives primary death by protocol (the
        coordinator promotes the most-caught-up replica)."""
        return max((link.acked_lsn for link in self.links), default=0)

    def heartbeat(self, coordinator) -> None:
        """Tell the failover coordinator this primary is alive and
        adopt the renewed :class:`Lease` an accepted heartbeat returns."""
        self.adopt_lease(coordinator.heartbeat_from(self))

    # -- lease gating ---------------------------------------------------------

    def adopt_lease(self, lease: Lease | None) -> None:
        """Install a coordinator-granted lease (None — the coordinator
        refused a deposed primary — is ignored)."""
        if lease is not None:
            self.lease = lease

    def is_isolated(self) -> bool:
        """Whether this node holds a lease *and* it has expired.

        An isolated node must refuse reads and writes: its heartbeats
        stopped reaching the coordinator, so for all it knows a standby
        has been (or is being) promoted and this WAL is no longer the
        authoritative timeline."""
        return self.lease is not None and not self.lease.valid_at(self._clock())

    @property
    def mode(self) -> str:
        """``ACTIVE`` (serving) or ``ISOLATED`` (read-refusing)."""
        return "ISOLATED" if self.is_isolated() else "ACTIVE"

    def check_serving(self) -> None:
        """Refuse service while isolated (the gate's serving check).

        Installed as :attr:`~repro.qos.gate.ServingGate.serving_check`
        by the coordinator, so every read and write admitted through
        the gate first proves the node still holds a valid lease."""
        if self.is_isolated():
            self.isolated_refusals += 1
            raise NodeIsolatedError(
                f"{self.name} is ISOLATED: lease for epoch "
                f"{self.lease.epoch} expired at {self.lease.expires_at:.3f} "
                f"(now {self._clock():.3f}); refusing to serve"
            )

    def bind_gate(self, gate) -> None:
        """Install this node's lease check on a serving gate, and the
        isolation pressure probe on its governor (ISOLATED reads as
        *severe* pressure: shed instead of serving possibly-deposed
        answers)."""
        gate.serving_check = self.check_serving
        governor = getattr(gate, "governor", None)
        if governor is not None:
            governor.isolation_probe = self.is_isolated

    def idempotency_keys(self) -> dict[str, int]:
        """Every idempotency key in this node's WAL, mapped to the LSN
        of its (last) statement.

        DML payloads carry the client's key verbatim
        (:meth:`~repro.engine.database.Database.insert` ``idem=``), and
        :func:`~repro.engine.wal.replay_record` re-logs it on replicas
        — so after a failover the promoted node's log is the ground
        truth the network tier rebuilds its dedup table from.  By the
        semi-sync acknowledgement rule, every *acknowledged* write's
        key is necessarily here.
        """
        keys: dict[str, int] = {}
        for record in self.database.wal.records():
            idem = record.payload.get("idem") if record.payload else None
            if idem is not None:
                keys[idem] = record.lsn
        return keys

    def lag_report(self) -> dict[str, int]:
        """Records-behind per attached replica (watermark lag)."""
        last = self.database.wal.last_lsn
        return {
            link.replica.name: max(0, last - link.replica.applied_lsn)
            for link in self.links
        }


class ReplicaNode:
    """The standby side: applies the shipped log, keeps PMVs warm.

    The receive path tolerates a lossy link end-to-end: records are
    checksum-verified on decode, duplicates (at-least-once delivery)
    are ignored by LSN, out-of-order arrivals wait in a reorder buffer
    until the gap fills, and messages from a deposed epoch are rejected
    with :class:`~repro.errors.StaleEpochError` (counted by the link).
    """

    def __init__(
        self,
        name: str = "replica",
        buffer_pool_pages: int = 1000,
        page_size: int = 8192,
        database: Database | None = None,
        manager: PMVManager | None = None,
    ) -> None:
        self.name = name
        if database is None:
            database = Database(
                buffer_pool_pages=buffer_pool_pages,
                page_size=page_size,
                wal=WriteAheadLog(),
            )
        if database.wal is None:
            raise ReplicationError("a replica needs a local WAL to stay promotable")
        self.database = database
        self.manager = manager or PMVManager(database)
        self.epoch = 0
        self.applied_lsn = database.wal.last_lsn
        self.primary_watermark = self.applied_lsn
        self.pending: dict[int, object] = {}
        self.records_applied = 0
        self.duplicates_ignored = 0
        self.promoted = False

    @classmethod
    def from_snapshot(
        cls,
        snapshot_text: str,
        name: str = "replica",
        buffer_pool_pages: int = 1000,
        page_size: int | None = None,
    ) -> "ReplicaNode":
        """Bootstrap a standby from a primary checkpoint snapshot.

        The snapshot's checksum is verified on parse
        (:func:`~repro.engine.snapshot.snapshot_from_json`); the
        replica joins the stream at the checkpoint LSN — its local log
        is advanced so the first applied record gets the same LSN it
        has on the primary.
        """
        snapshot = snapshot_from_json(snapshot_text)
        wal = WriteAheadLog()
        database = restore_snapshot(
            snapshot,
            buffer_pool_pages=buffer_pool_pages,
            wal=wal,
            page_size=page_size,
        )
        wal.advance_to(snapshot["checkpoint_lsn"])
        node = cls(name=name, database=database)
        node.applied_lsn = snapshot["checkpoint_lsn"]
        node.primary_watermark = node.applied_lsn
        return node

    # -- the apply loop -------------------------------------------------------

    def observe_epoch(self, epoch: int) -> None:
        self.epoch = max(self.epoch, epoch)

    def receive(self, wire: str) -> int:
        """Accept one shipped message; returns how many records this
        delivery let the apply loop advance by (0 for a duplicate or a
        buffered out-of-order record)."""
        message = ShippedRecord.from_wire(wire)
        if message.epoch < self.epoch:
            raise StaleEpochError(
                f"{self.name}: rejected record from epoch {message.epoch} "
                f"(current epoch {self.epoch})"
            )
        self.epoch = message.epoch
        self.primary_watermark = max(self.primary_watermark, message.watermark)
        record = LogRecord.decode(message.frame)  # CRC32 verified on the ship path
        if record.lsn <= self.applied_lsn:
            self.duplicates_ignored += 1
            return 0
        self.pending[record.lsn] = record
        return self._drain()

    def _drain(self) -> int:
        applied = 0
        while self.applied_lsn + 1 in self.pending:
            record = self.pending.pop(self.applied_lsn + 1)
            self._apply(record)
            self.applied_lsn = record.lsn
            self.records_applied += 1
            applied += 1
        return applied

    def _apply(self, record: LogRecord) -> None:
        wal = self.database.wal
        if wal.last_lsn + 1 != record.lsn:
            raise ReplicationError(
                f"{self.name}: local log drifted (applying LSN {record.lsn}, "
                f"local log at {wal.last_lsn})"
            )
        if record.kind is not LogKind.CHECKPOINT:
            # The exact crash-recovery path, with the local WAL detached
            # so the statement is not encoded a second time: the record
            # the primary shipped is the log entry.  The space probe a
            # logged statement would run comes first, so a full disk
            # refuses the record before the heap changes.
            wal.reserve()
            self.database.wal = None
            try:
                replay_record(self.database, record)
            finally:
                self.database.wal = wal
        wal.adopt(record)

    def note_watermark(self, lsn: int) -> None:
        """Advertise the primary's current end-of-log.

        Shipped records carry the watermark, but between pumps a
        replica would otherwise believe it is caught up simply because
        nothing told it about newer writes.  A router (or heartbeat
        piggyback) calls this so lag is honest against the freshest
        known primary position."""
        self.primary_watermark = max(self.primary_watermark, lsn)

    @property
    def lag(self) -> int:
        """Records behind the freshest known primary watermark."""
        return max(0, self.primary_watermark - self.applied_lsn)

    # -- serving --------------------------------------------------------------

    def serve(
        self,
        query,
        staleness_bound: int | None = None,
        txn=None,
        distinct: bool = False,
        deadline=None,
    ):
        """Answer a read on the standby under bounded staleness.

        Behind the watermark but within ``staleness_bound``: the answer
        is served from the replica's (possibly older) state and flagged
        ``complete=False, degraded_reason="replica_lag"`` — an honest
        subset of the primary's answer as of the applied LSN, never
        passed off as current.  Beyond the bound, the read is refused
        with :class:`~repro.errors.ReplicaLagError`.
        """
        lag = self.lag
        if staleness_bound is not None and lag > staleness_bound:
            raise ReplicaLagError(
                f"{self.name} is {lag} records behind (bound {staleness_bound})",
                lag=lag,
                bound=staleness_bound,
            )
        result = self.manager.execute(
            query, txn=txn, distinct=distinct, deadline=deadline
        )
        if lag > 0:
            result.complete = False
            result.degraded_reason = "replica_lag"
        return result

    # -- fleet mirroring and promotion ---------------------------------------

    def mirror_views(self, source) -> None:
        """Clone the primary's PMV fleet onto this standby.

        ``source`` is the primary's :class:`PMVManager` (or a
        ``view_specs()``-shaped dict).  Must run after the replica has
        applied the DDL that created the underlying relations.  The
        mirrored maintainers attach immediately, so every subsequently
        applied delta maintains the standby's cache.
        """
        specs = source.view_specs() if hasattr(source, "view_specs") else source
        for name, spec in specs.items():
            if name in set(self.manager.template_names()):
                continue
            self.manager.create_view(
                spec["template"],
                spec["discretization"],
                tuples_per_entry=spec["tuples_per_entry"],
                max_entries=spec["max_entries"],
                policy=spec["policy"],
                aux_index_columns=spec["aux_index_columns"],
                upper_bound_bytes=spec["upper_bound_bytes"],
                maintenance_strategy=spec["maintenance_strategy"],
                o1_cache_size=spec["o1_cache_size"],
                executor_options=spec["executor_options"],
            )

    def promote(
        self, epoch: int, clock: Callable[[], float] = time.monotonic
    ) -> PrimaryNode:
        """Become the primary for ``epoch``.

        Unapplied reorder-buffer records are discarded — they are
        beyond this node's contiguous history, and by the promotion
        rule (most-caught-up replica wins) nothing acknowledged can be
        among them.  Returns the :class:`PrimaryNode` wrapping this
        node's database and warm PMV fleet.
        """
        if epoch <= self.epoch and self.promoted:
            raise ReplicationError(f"{self.name} already promoted at epoch {self.epoch}")
        self.epoch = max(self.epoch, epoch)
        self.pending.clear()
        self.promoted = True
        return PrimaryNode(
            self.database,
            manager=self.manager,
            epoch=self.epoch,
            name=self.name,
            clock=clock,
        )

    def stats(self) -> dict:
        return {
            "name": self.name,
            "epoch": self.epoch,
            "applied_lsn": self.applied_lsn,
            "primary_watermark": self.primary_watermark,
            "lag": self.lag,
            "pending": len(self.pending),
            "records_applied": self.records_applied,
            "duplicates_ignored": self.duplicates_ignored,
            "promoted": self.promoted,
        }
