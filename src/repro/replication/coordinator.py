"""Failure detection and failover orchestration.

The :class:`FailoverCoordinator` watches the primary's heartbeats (the
primary calls :meth:`heartbeat_from` — usually via
:meth:`~repro.replication.node.PrimaryNode.heartbeat` — while alive;
the clock is injectable, so tests and the failover/nemesis benches
drive time explicitly).

**Failure detection** counts *consecutive missed heartbeat intervals*
with hysteresis rather than firing on a single silence sample: every
whole ``heartbeat_interval`` of silence adds one unit of suspicion
debt, every on-time heartbeat pays :data:`HYSTERESIS` units back, and
the primary is suspected only once debt plus the current silence
reaches :data:`SUSPICION_THRESHOLD` whole intervals.  One delayed
heartbeat under load therefore cannot trigger a spurious failover, and
the ``misses``/``suspicions`` counters in :meth:`stats` make the
detector's behaviour observable.

Once suspected, :meth:`tick` runs the failover protocol:

1. **lease gate** — promotion is *refused* until the last lease this
   coordinator granted has provably expired on the shared clock.  The
   old primary self-isolates when it cannot renew (ISOLATED mode, see
   :mod:`repro.replication.lease`), so by the time promotion is
   allowed the old primary has already stopped serving — there is no
   promote-while-zombie-serves window for reads under an asymmetric
   partition, which a fence alone cannot close;
2. **watermark gate** — promotion is also refused while the best
   candidate's applied LSN does not cover the last acknowledged
   watermark this coordinator recorded from the primary's heartbeats:
   promoting a lagging replica would silently drop acked writes;
3. **fence** — *best effort*: the new epoch is stamped into the old
   primary's WAL (:meth:`~repro.engine.wal.WriteAheadLog.fence`) when
   the primary is reachable (``primary_reachable`` hook); under a
   partition the fence is skipped and the expired lease is what
   guarantees the old primary stopped.  Stale-epoch ships are rejected
   by every replica's epoch check either way;
4. **promote** — the most-caught-up replica becomes the primary for
   the bumped epoch and receives a fresh lease;
5. **rechain** — surviving replicas are attached to the new primary;
6. **rewire** — the :class:`~repro.qos.gate.ServingGate`, when one is
   registered, is rebound to the promoted fleet (the governor restores
   configured UBs first), and the new primary's lease check replaces
   the old one on the gate.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.errors import ReplicationError
from repro.replication.lease import Lease
from repro.replication.node import PrimaryNode, ReplicaNode

__all__ = ["FailoverCoordinator", "SUSPICION_THRESHOLD"]

SUSPICION_THRESHOLD = 3
"""Whole heartbeat intervals of suspicion debt at which the primary is
suspected."""
HYSTERESIS = 1
"""Debt units an on-time heartbeat pays back."""


class FailoverCoordinator:
    """Detects primary death and promotes the best replica."""

    def __init__(
        self,
        primary: PrimaryNode,
        replicas: list[ReplicaNode],
        *,
        lease_ttl: float,
        gate=None,
        heartbeat_interval: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not replicas:
            raise ReplicationError("failover needs at least one replica")
        self.primary = primary
        self.replicas = list(replicas)
        self.gate = gate
        self.heartbeat_interval = heartbeat_interval
        self.lease_ttl = lease_ttl
        self._clock = clock
        self._last_heartbeat = clock()
        self._debt = 0  # accumulated missed intervals (hysteresis state)
        self._counted_since_hb = 0
        self._was_suspected = False
        self.misses = 0
        self.suspicions = 0
        self.failovers = 0
        self.promotions_refused_lease = 0
        self.promotions_refused_watermark = 0
        self.fences_skipped = 0
        self.stale_heartbeats = 0
        self.last_refusal: str | None = None
        self.epoch_history: list[int] = [primary.epoch]
        self._failover_listeners: list[Callable[[PrimaryNode], None]] = []
        # The coordinator's last recorded view of the primary's
        # semi-sync watermark — what the watermark gate promotes
        # against when the primary itself is unreachable.
        self._recorded_acked_lsn = primary.acked_lsn
        self._lease_expiry = clock()
        self.primary_reachable: Callable[[], bool] | None = None
        primary.adopt_lease(self._mint_lease(primary.epoch))
        if gate is not None:
            primary.bind_gate(gate)

    def add_failover_listener(self, listener: Callable[[PrimaryNode], None]) -> None:
        """Subscribe to promotions: called with the new primary after
        the gate is rebound (the network front-end rebuilds its dedup
        table from the promoted WAL here)."""
        self._failover_listeners.append(listener)

    # -- failure detection ----------------------------------------------------

    def _observe_silence(self) -> int:
        """Whole heartbeat intervals of silence, with the ``misses``
        counter advanced for any not yet counted."""
        silence = self._clock() - self._last_heartbeat
        whole = max(0, int(silence // self.heartbeat_interval))
        if whole > self._counted_since_hb:
            self.misses += whole - self._counted_since_hb
            self._counted_since_hb = whole
        return whole

    def notify_heartbeat(self, acked_lsn: int | None = None) -> None:
        """Record one heartbeat arrival from the current primary.

        An on-time arrival pays :data:`HYSTERESIS` units of suspicion
        debt back; a late one banks its missed intervals as debt, so a
        primary that keeps arriving late accumulates suspicion even
        though no single gap reaches the threshold on its own.
        """
        whole = self._observe_silence()
        self._debt = max(0, self._debt + whole - HYSTERESIS)
        self._counted_since_hb = 0
        self._last_heartbeat = self._clock()
        if self._debt < SUSPICION_THRESHOLD:
            self._was_suspected = False
        if acked_lsn is not None:
            self._recorded_acked_lsn = max(self._recorded_acked_lsn, acked_lsn)

    def heartbeat_from(self, primary: PrimaryNode) -> Lease | None:
        """Accept a heartbeat from ``primary``; returns the renewed
        lease (None when the caller is a deposed primary — which must
        *not* have its lease renewed)."""
        if primary is not self.primary:
            self.stale_heartbeats += 1
            return None
        self.notify_heartbeat(acked_lsn=primary.acked_lsn)
        return self._mint_lease(primary.epoch)

    def _mint_lease(self, epoch: int) -> Lease:
        now = self._clock()
        lease = Lease(epoch=epoch, granted_at=now, expires_at=now + self.lease_ttl)
        self._lease_expiry = max(self._lease_expiry, lease.expires_at)
        return lease

    def primary_suspected(self) -> bool:
        """Whether accumulated suspicion reaches the threshold."""
        whole = self._observe_silence()
        suspected = self._debt + whole >= SUSPICION_THRESHOLD
        if suspected and not self._was_suspected:
            self.suspicions += 1
            self._was_suspected = True
        return suspected

    def tick(self) -> PrimaryNode | None:
        """Run one detection step; fails over if the primary is dead.

        Returns the new primary when a failover happened, else None —
        including when the primary is suspected but promotion is still
        refused by the lease or watermark gate (``stats()`` says why).
        """
        if not self.primary_suspected():
            return None
        return self.failover()

    # -- the failover protocol ------------------------------------------------

    def failover(self) -> PrimaryNode | None:
        """Fence (best effort), promote the best safe replica, rewire.

        Returns None when promotion is refused: the old lease has not
        provably expired yet, or no candidate's watermark covers the
        recorded acked LSN.  Refusal is the safe state — a suspected
        primary may be merely partitioned, and promoting early is how
        acked writes get lost or two eras serve at once.
        """
        now = self._clock()
        if now < self._lease_expiry:
            self.promotions_refused_lease += 1
            self.last_refusal = (
                f"lease valid until {self._lease_expiry:.3f} (now {now:.3f})"
            )
            return None
        if not self.replicas:
            self.promotions_refused_watermark += 1
            self.last_refusal = "no standby left to promote"
            return None
        candidate = max(self.replicas, key=lambda replica: replica.applied_lsn)
        if candidate.applied_lsn < self._recorded_acked_lsn:
            self.promotions_refused_watermark += 1
            self.last_refusal = (
                f"best candidate {candidate.name} at LSN {candidate.applied_lsn} "
                f"< acked watermark {self._recorded_acked_lsn}"
            )
            return None
        self.last_refusal = None
        new_epoch = self.primary.epoch + 1
        # Fence when reachable: from that instant the deposed primary
        # can neither append (WALFencedError) nor mutate.  Unreachable
        # under a partition, the fence is skipped — the expired lease
        # already made the old primary refuse service (ISOLATED).
        if self.primary_reachable is None or self.primary_reachable():
            self.primary.database.wal.fence(new_epoch)
        else:
            self.fences_skipped += 1
        new_primary = candidate.promote(new_epoch, clock=self._clock)
        for replica in self.replicas:
            if replica is not candidate:
                new_primary.attach_replica(replica)
        self.replicas = [r for r in self.replicas if r is not candidate]
        if self.gate is not None:
            self.gate.rebind(new_primary.manager)
        self.primary = new_primary
        self.failovers += 1
        self.epoch_history.append(new_epoch)
        self._recorded_acked_lsn = new_primary.acked_lsn
        new_primary.adopt_lease(self._mint_lease(new_epoch))
        if self.gate is not None:
            new_primary.bind_gate(self.gate)
        self._reset_suspicion()  # the new primary starts with a fresh budget
        for listener in self._failover_listeners:
            listener(new_primary)
        return new_primary

    def _reset_suspicion(self) -> None:
        self._last_heartbeat = self._clock()
        self._debt = 0
        self._counted_since_hb = 0
        self._was_suspected = False

    def stats(self) -> dict:
        return {
            "epoch": self.primary.epoch,
            "failovers": self.failovers,
            "epoch_history": list(self.epoch_history),
            "primary": self.primary.name,
            "primary_mode": self.primary.mode,
            "replicas": [replica.stats() for replica in self.replicas],
            "suspected": self.primary_suspected(),
            "suspicion_debt": self._debt,
            "misses": self.misses,
            "suspicions": self.suspicions,
            "lease_ttl": self.lease_ttl,
            "lease_expiry": self._lease_expiry,
            "recorded_acked_lsn": self._recorded_acked_lsn,
            "promotions_refused_lease": self.promotions_refused_lease,
            "promotions_refused_watermark": self.promotions_refused_watermark,
            "fences_skipped": self.fences_skipped,
            "stale_heartbeats": self.stale_heartbeats,
            "last_refusal": self.last_refusal,
        }
