"""Lease-gated promotion, suspicion hysteresis, and ISOLATED mode.

The partition story in unit-sized pieces: the coordinator refuses to
promote while the old lease could still be honoured (and while the
best candidate's watermark trails the acked LSN); the primary
self-isolates when its lease expires; the control link models the
directed coordinator↔primary channel the nemesis cuts.
"""

import pytest

from repro.engine import Column, Database, INTEGER, TEXT, WriteAheadLog
from repro.errors import NodeIsolatedError
from repro.replication import (
    ControlLink,
    FailoverCoordinator,
    Lease,
    PrimaryNode,
    ReplicaNode,
)
from repro.replication.coordinator import SUSPICION_THRESHOLD


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def build_primary(clock, epoch: int = 1) -> PrimaryNode:
    db = Database(wal=WriteAheadLog())
    db.create_relation(
        "t", [Column("id", INTEGER, nullable=False), Column("v", TEXT)]
    )
    db.create_index("t_id", "t", ["id"])
    return PrimaryNode(db, epoch=epoch, clock=clock)


def build_cluster():
    clock = FakeClock()
    primary = build_primary(clock)
    replicas = [ReplicaNode(name="fast"), ReplicaNode(name="slow")]
    for replica in replicas:
        primary.attach_replica(replica)
    coordinator = FailoverCoordinator(
        primary,
        replicas,
        heartbeat_interval=1.0,
        lease_ttl=4.0,
        clock=clock,
    )
    return clock, primary, replicas, coordinator


class TestLease:
    def test_validity_window(self):
        lease = Lease(epoch=1, granted_at=0.0, expires_at=4.0)
        assert lease.valid_at(0.0)
        assert lease.valid_at(3.999)
        assert not lease.valid_at(4.0)

    def test_heartbeat_renews_lease(self):
        clock, primary, _, coordinator = build_cluster()
        first = primary.lease
        clock.now = 2.0
        primary.heartbeat(coordinator)
        assert primary.lease.expires_at == pytest.approx(6.0)
        assert primary.lease.expires_at > first.expires_at

    def test_standalone_primary_serves_ungated(self):
        clock = FakeClock()
        primary = build_primary(clock)  # no coordinator, so no lease
        assert primary.lease is None
        clock.now = 100.0
        assert not primary.is_isolated()
        assert primary.mode == "ACTIVE"
        primary.check_serving()  # no raise


class TestSuspicionHysteresis:
    def test_default_threshold_is_missed_heartbeats(self):
        clock, _, _, coordinator = build_cluster()
        clock.now = SUSPICION_THRESHOLD - 0.1
        assert not coordinator.primary_suspected()
        clock.now = float(SUSPICION_THRESHOLD)
        assert coordinator.primary_suspected()

    def test_single_late_heartbeat_does_not_suspect(self):
        clock, primary, _, coordinator = build_cluster()
        clock.now = 2.5  # two whole intervals late
        primary.heartbeat(coordinator)
        clock.now = 3.0
        assert not coordinator.primary_suspected()
        assert coordinator.misses == 2

    def test_chronic_lateness_accumulates_debt(self):
        clock, primary, _, coordinator = build_cluster()
        # Repeatedly 2 intervals late: the arrival banks 2 debt and pays
        # 1 back, so the next 2-interval gap crosses the threshold of 3.
        clock.now = 2.0
        primary.heartbeat(coordinator)
        assert not coordinator.primary_suspected()
        clock.now = 4.0
        assert coordinator.primary_suspected()
        assert coordinator.suspicions == 1

    def test_hysteresis_pays_debt_back(self):
        clock, primary, _, coordinator = build_cluster()
        clock.now = 2.0
        primary.heartbeat(coordinator)  # banks 2, pays 1 -> debt 1
        for i in range(10):  # on-time heartbeats drain the debt
            clock.now += 0.5
            primary.heartbeat(coordinator)
        clock.now += 1.5
        assert not coordinator.primary_suspected()

    def test_suspicions_counted_once_per_episode(self):
        clock, primary, _, coordinator = build_cluster()
        clock.now = 10.0
        assert coordinator.primary_suspected()
        assert coordinator.primary_suspected()
        assert coordinator.suspicions == 1
        stats = coordinator.stats()
        assert stats["suspicions"] == 1
        assert stats["misses"] == 10


class TestLeaseGatedPromotion:
    def test_promotion_refused_while_lease_valid(self):
        clock, primary, _, coordinator = build_cluster()
        # Silence long enough to suspect, but inside the lease TTL.
        clock.now = 3.5
        assert coordinator.tick() is None
        assert coordinator.promotions_refused_lease == 1
        assert "lease valid" in coordinator.last_refusal
        assert coordinator.primary is primary

    def test_promotion_allowed_after_lease_expiry(self):
        clock, primary, replicas, coordinator = build_cluster()
        clock.now = 4.5  # past the 4.0 lease expiry *and* the threshold
        promoted = coordinator.tick()
        assert promoted is not None
        assert promoted.epoch == 2
        assert promoted.lease is not None  # the new primary is leased
        assert promoted.lease.epoch == 2

    def test_watermark_gate_refuses_lagging_candidate(self):
        clock, primary, replicas, coordinator = build_cluster()
        primary.database.insert("t", (1, "a"))
        primary.ship()
        primary.heartbeat(coordinator)  # records acked_lsn
        for link in primary.links:
            link.partitioned = True
        primary.database.insert("t", (2, "b"))
        # Fake a higher recorded watermark than any replica applied.
        coordinator._recorded_acked_lsn = primary.database.wal.last_lsn
        clock.now = 10.0
        assert coordinator.tick() is None
        assert coordinator.promotions_refused_watermark == 1
        assert "acked watermark" in coordinator.last_refusal

    def test_no_standby_left_refused_not_crash(self):
        clock, primary, replicas, coordinator = build_cluster()
        clock.now = 10.0
        first = coordinator.tick()
        assert first is not None
        clock.now = 20.0
        second = coordinator.tick()
        assert second is not None
        clock.now = 30.0
        assert coordinator.tick() is None  # nobody left: refuse, don't die
        assert coordinator.last_refusal == "no standby left to promote"

    def test_fence_skipped_when_primary_unreachable(self):
        clock, primary, _, coordinator = build_cluster()
        coordinator.primary_reachable = lambda: False
        clock.now = 10.0
        promoted = coordinator.tick()
        assert promoted is not None
        assert coordinator.fences_skipped == 1
        assert primary.database.wal.fenced_by_epoch is None  # never reached

    def test_deposed_primary_heartbeat_refused(self):
        clock, primary, _, coordinator = build_cluster()
        clock.now = 10.0
        coordinator.tick()
        lease = coordinator.heartbeat_from(primary)  # the zombie calls home
        assert lease is None
        assert coordinator.stale_heartbeats == 1


class TestIsolatedMode:
    def test_expired_lease_isolates(self):
        clock, primary, _, coordinator = build_cluster()
        assert primary.mode == "ACTIVE"
        clock.now = 4.5
        assert primary.is_isolated()
        assert primary.mode == "ISOLATED"
        with pytest.raises(NodeIsolatedError):
            primary.check_serving()
        assert primary.isolated_refusals == 1

    def test_renewal_reactivates(self):
        clock, primary, _, coordinator = build_cluster()
        clock.now = 4.5
        assert primary.is_isolated()
        primary.heartbeat(coordinator)  # the partition healed
        assert not primary.is_isolated()
        primary.check_serving()  # no raise

    def test_stats_surface_mode(self):
        clock, primary, _, coordinator = build_cluster()
        assert coordinator.stats()["primary_mode"] == "ACTIVE"
        clock.now = 4.5
        stats = coordinator.stats()
        assert stats["primary_mode"] == "ISOLATED"


class TestControlLink:
    def test_pump_round_trip(self):
        clock, primary, _, coordinator = build_cluster()
        link = ControlLink(coordinator, primary)
        clock.now = 1.0
        lease = link.pump()
        assert lease is not None and lease.expires_at == pytest.approx(5.0)
        assert link.heartbeats_delivered == 1
        assert link.leases_delivered == 1

    def test_cut_up_hides_primary(self):
        clock, primary, _, coordinator = build_cluster()
        link = ControlLink(coordinator, primary)
        link.cut("up")
        clock.now = 1.0
        assert link.pump() is None
        assert link.heartbeats_lost == 1
        # The coordinator saw nothing; the primary's lease still ages out.
        clock.now = 4.5
        assert primary.is_isolated()

    def test_cut_down_starves_lease_but_informs_coordinator(self):
        clock, primary, _, coordinator = build_cluster()
        link = ControlLink(coordinator, primary)
        link.cut("down")
        for now in (1.0, 2.0, 3.0, 4.0):
            clock.now = now
            assert link.pump() is None
        assert link.heartbeats_delivered == 4
        assert link.leases_lost == 4
        clock.now = 4.5
        # The primary never learned of renewals: it self-isolates even
        # though the coordinator still believes it alive.
        assert primary.is_isolated()
        assert not coordinator.primary_suspected()

    def test_rebind_follows_promotion(self):
        clock, primary, _, coordinator = build_cluster()
        link = ControlLink(coordinator, primary)
        link.cut()
        clock.now = 10.0
        promoted = coordinator.tick()
        link.rebind(promoted)
        assert link.primary is promoted
        assert link.connected
        clock.now = 11.0
        assert link.pump() is not None


class TestGateBinding:
    def test_bind_gate_installs_serving_check(self):
        clock, primary, _, coordinator = build_cluster()
        stub_gate = type("G", (), {"serving_check": None, "governor": None})()
        primary.bind_gate(stub_gate)
        assert stub_gate.serving_check == primary.check_serving
        clock.now = 4.5
        with pytest.raises(NodeIsolatedError):
            stub_gate.serving_check()
