"""Coordinator-granted serving leases and the heartbeat control link.

The partition problem fencing alone cannot solve: fencing stamps the
new epoch into the *old primary's* WAL, which requires reaching the old
primary.  Under an asymmetric partition the coordinator cannot reach it
— yet clients still can, so a deposed-but-reachable primary would keep
serving reads whose staleness stamps silently lie (they are computed
against a WAL that is no longer the authoritative timeline).

Leases close that window from the primary's side (DESIGN.md §16):

- every accepted heartbeat returns a :class:`Lease` valid for
  ``lease_ttl`` seconds;
- a primary whose lease expires — because its heartbeats stopped
  reaching the coordinator — drops into **ISOLATED** mode and refuses
  reads and writes with :class:`~repro.errors.NodeIsolatedError`
  (retryable) instead of serving possibly-deposed answers;
- the coordinator refuses to promote until the last lease it granted
  has *provably expired*, so there is no instant at which the old
  primary may still serve while a new primary already accepts writes.

Clocks are injectable and the protocol assumes bounded skew between
the coordinator's and the primary's clock (zero in tests and the
nemesis drill, which share one fake clock); a deployment would subtract
the skew bound from the TTL the primary honours.

:class:`ControlLink` is the heartbeat/lease channel as a nemesis seam:
a directed coordinator↔primary connection that a
:class:`~repro.faults.partition.PartitionPlan` can cut and heal.  While
cut, heartbeats do not reach the coordinator and granted leases do not
reach the primary — the exact failure the lease machinery exists for.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Lease", "ControlLink"]


@dataclass(frozen=True)
class Lease:
    """One serving grant: "you are the epoch-``epoch`` primary until
    ``expires_at``" on the granting coordinator's clock."""

    epoch: int
    granted_at: float
    expires_at: float

    def valid_at(self, now: float) -> bool:
        return now < self.expires_at


class ControlLink:
    """The coordinator↔primary heartbeat channel, cuttable per side.

    ``pump()`` performs one heartbeat round trip: the primary's
    liveness (and its semi-sync ``acked_lsn``) travels up, the renewed
    lease travels back down.  Cutting the *up* direction models a
    primary that looks dead to the coordinator while still holding an
    unexpired lease; cutting the *down* direction models a primary that
    keeps the coordinator informed but cannot learn its lease was
    renewed (it self-isolates conservatively).  ``cut()`` with no
    argument severs both, the symmetric partition.
    """

    def __init__(self, coordinator, primary) -> None:
        self.coordinator = coordinator
        self.primary = primary
        self.up = True  # primary -> coordinator (heartbeats)
        self.down = True  # coordinator -> primary (lease grants)
        self.heartbeats_delivered = 0
        self.heartbeats_lost = 0
        self.leases_delivered = 0
        self.leases_lost = 0

    def cut(self, direction: str = "both") -> None:
        if direction in ("both", "up"):
            self.up = False
        if direction in ("both", "down"):
            self.down = False

    def heal(self, direction: str = "both") -> None:
        if direction in ("both", "up"):
            self.up = True
        if direction in ("both", "down"):
            self.down = True

    @property
    def connected(self) -> bool:
        return self.up and self.down

    def pump(self) -> Lease | None:
        """One heartbeat round trip, subject to the cut state.

        Returns the lease the primary adopted, or None when either
        direction was down (or the coordinator refused — e.g. this
        primary has been deposed and is no longer the leaseholder).
        """
        if not self.up:
            self.heartbeats_lost += 1
            return None
        lease = self.coordinator.heartbeat_from(self.primary)
        self.heartbeats_delivered += 1
        if lease is None:
            return None
        if not self.down:
            self.leases_lost += 1
            return None
        self.primary.adopt_lease(lease)
        self.leases_delivered += 1
        return lease

    def rebind(self, primary) -> None:
        """Point the link at a promoted primary (the control plane's
        connection follows the leaseholder)."""
        self.primary = primary
        self.up = True
        self.down = True
