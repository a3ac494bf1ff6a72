"""The log-shipping wire format and the lossy in-process transport.

Replication ships the primary's WAL as-is: each message is the
sender's ``epoch`` (the fencing token), its current ``watermark`` (last
LSN on the primary, from which replicas compute their lag) and one
:class:`~repro.engine.wal.LogRecord`'s frame, byte for byte as its
segment stores it — so the checksum written at append time is the
checksum verified at apply time.

:class:`ReplicationLink` is one primary→replica connection.  It is
deliberately in-process and synchronous — ``send`` delivers straight
into :meth:`ReplicaNode.receive` — but every send passes through the
``ship.send`` fault site of a :class:`~repro.faults.inject.FaultInjector`,
so a :class:`~repro.faults.plan.FaultPlan` can make the link drop,
duplicate, reorder, or partition deterministically.  Recovery from all
four is the same mechanism: the primary re-ships everything past the
link's acked watermark on each pump, and the replica ignores duplicates
and buffers out-of-order records, so any healed link converges (the
property test in ``tests/properties`` drives random fault plans through
exactly this loop).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReplicationError, StaleEpochError
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultMode

__all__ = ["SHIP_SITE", "ShippedRecord", "ReplicationLink"]

SHIP_SITE = "ship.send"
"""The transport's fault site (see :mod:`repro.faults.plan`)."""


@dataclass(frozen=True)
class ShippedRecord:
    """One replication message, ``"<epoch> <watermark> <frame>"`` on
    the wire.

    ``frame`` is the record's WAL frame *verbatim*, CRC32 included —
    :meth:`LogRecord.decode <repro.engine.wal.LogRecord.decode>` verifies
    it, so a record corrupted anywhere between the primary's disk and
    the replica's apply loop fails loudly
    (:class:`~repro.errors.WALChecksumError`).
    """

    epoch: int
    watermark: int
    frame: str

    def to_wire(self) -> str:
        return f"{self.epoch} {self.watermark} {self.frame}"

    @staticmethod
    def from_wire(text: str) -> "ShippedRecord":
        try:
            epoch, watermark, frame = text.split(" ", 2)
            return ShippedRecord(int(epoch), int(watermark), frame)
        except ValueError as exc:
            raise ReplicationError(f"malformed ship message: {text[:80]!r}") from exc


class ReplicationLink:
    """One primary→replica connection with injectable link faults.

    The link tracks the ``acked_lsn`` watermark — the highest LSN the
    replica had durably applied the last time an acknowledgement was
    readable (i.e. the link was not partitioned).  The primary ships
    from this watermark on every pump, which makes retransmission
    automatic: a dropped or partitioned-away record is simply still
    past the watermark next time.

    The same watermark is also pinned into the primary log's
    :class:`~repro.engine.wal.LsnRetentionRegistry` (as
    ``ship:<replica-name>``, see ``PrimaryNode._pin_retention``), so
    checkpoint truncation never deletes a segment this link still has
    to ship — a lagging replica retransmits from the live log or the
    archive instead of being forced into a snapshot bootstrap.
    """

    def __init__(self, replica, injector: FaultInjector | None = None) -> None:
        self.replica = replica
        self.injector = injector
        self.acked_lsn = getattr(replica, "applied_lsn", 0)
        self.partitioned = False
        self._held: list[str] = []  # reorder buffer
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.duplicated = 0
        self.reordered = 0
        self.partitions = 0
        self.stale_epoch_rejects = 0

    # -- sending --------------------------------------------------------------

    def send(self, wire: str) -> None:
        """Ship one message, subject to the link's scheduled faults."""
        self.sent += 1
        if self.partitioned:
            self.dropped += 1
            return
        spec = self.injector.check(SHIP_SITE) if self.injector is not None else None
        mode = spec.mode if spec is not None else None
        if mode is FaultMode.DROP:
            self.dropped += 1
            return
        if mode is FaultMode.PARTITION:
            # The link goes down mid-send: this message and the reorder
            # buffer are lost, and nothing flows until heal().
            self.partitioned = True
            self.partitions += 1
            self.dropped += 1 + len(self._held)
            self._held.clear()
            return
        if mode is FaultMode.REORDER:
            # Hold the message back; it rides behind the next delivery.
            self.reordered += 1
            self._held.append(wire)
            return
        self._deliver(wire)
        if mode is FaultMode.DUPLICATE:
            self.duplicated += 1
            self._deliver(wire)
        while self._held:
            self._deliver(self._held.pop(0))

    def heal(self) -> None:
        """Bring a partitioned link back up (messages lost while down
        stay lost; the watermark-based pump re-ships them)."""
        self.partitioned = False

    def _deliver(self, wire: str) -> None:
        try:
            self.replica.receive(wire)
        except StaleEpochError:
            # The receiver outlived this sender's reign.  The zombie
            # primary learns it through the counter — its writes are
            # additionally refused by its own fenced WAL.
            self.stale_epoch_rejects += 1
            return
        self.delivered += 1

    # -- acknowledgement ------------------------------------------------------

    def read_ack(self) -> int:
        """Read the replica's applied watermark, if the link is up."""
        if not self.partitioned:
            self.acked_lsn = max(self.acked_lsn, self.replica.applied_lsn)
        return self.acked_lsn
