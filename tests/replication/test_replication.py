"""Unit tests for WAL-shipping replication: the wire format, the lossy
link, epoch fencing, bounded-staleness serving, snapshot bootstrap, and
the failover coordinator."""

import pytest

from repro.engine import (
    Column,
    Database,
    EqualityDisjunction,
    INTEGER,
    JoinEquality,
    QueryTemplate,
    SelectionSlot,
    SlotForm,
    TEXT,
    WriteAheadLog,
)
from repro.engine.snapshot import checkpoint, snapshot_to_json
from repro.engine.wal import LogKind, LogRecord
from repro.errors import (
    EngineError,
    ReplicaLagError,
    ReplicationError,
    SnapshotCorruptionError,
    StaleEpochError,
    WALChecksumError,
    WALFencedError,
)
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultMode, FaultPlan, FaultSpec
from repro.core.manager import PMVManager
from repro.qos import ServingGate
from repro.replication import (
    FailoverCoordinator,
    PrimaryNode,
    ReplicaNode,
    ReplicationLink,
    SHIP_SITE,
    ShippedRecord,
)


def build_primary(epoch: int = 1) -> PrimaryNode:
    db = Database(wal=WriteAheadLog())
    db.create_relation(
        "t", [Column("id", INTEGER, nullable=False), Column("v", TEXT)]
    )
    db.create_index("t_id", "t", ["id"])
    return PrimaryNode(db, epoch=epoch)


def contents(db: Database, name: str = "t"):
    return sorted(tuple(r.values) for r in db.catalog.relation(name).scan_rows())


def physical(db: Database, name: str = "t"):
    return {rid: row.values for rid, row in db.catalog.relation(name).scan()}


def ship_plan(*specs) -> FaultInjector:
    return FaultInjector(
        FaultPlan([FaultSpec(SHIP_SITE, occ, mode) for occ, mode in specs])
    )


class TestWireFormat:
    def test_roundtrip(self):
        frame = LogRecord.make(5, LogKind.CHECKPOINT, {}).frame
        msg = ShippedRecord(epoch=3, watermark=17, frame=frame)
        assert msg.to_wire() == "3 17 " + frame  # the frame rides unescaped
        assert ShippedRecord.from_wire(msg.to_wire()) == msg

    def test_malformed_wire_rejected(self):
        with pytest.raises(ReplicationError):
            ShippedRecord.from_wire("not json")
        with pytest.raises(ReplicationError):
            ShippedRecord.from_wire('{"epoch": 1}')  # missing fields
        with pytest.raises(ReplicationError):
            ShippedRecord.from_wire("one 2 frame")  # not an epoch

    def test_tampered_record_fails_checksum_on_decode(self):
        primary = build_primary()
        primary.database.insert("t", (1, "a"))
        frame = primary.database.wal.records(after_lsn=2).__next__().frame
        tampered = frame.replace('[1,"a"]', '[999,"tampered"]')
        assert tampered != frame
        msg = ShippedRecord(epoch=1, watermark=3, frame=tampered)
        with pytest.raises(WALChecksumError):
            ReplicaNode().receive(msg.to_wire())


class TestShipping:
    def test_ship_converges_and_lsns_align(self):
        primary = build_primary()
        replica = ReplicaNode()
        primary.attach_replica(replica)
        for i in range(10):
            primary.database.insert("t", (i, f"v{i}"))
        primary.ship()
        assert contents(replica.database) == contents(primary.database)
        assert physical(replica.database) == physical(primary.database)
        # The replica's local log is a verbatim continuation: same LSNs.
        assert replica.applied_lsn == primary.database.wal.last_lsn
        assert replica.database.wal.last_lsn == primary.database.wal.last_lsn
        assert primary.acked_lsn == primary.database.wal.last_lsn
        assert replica.lag == 0

    def test_checkpoint_marker_keeps_lsns_aligned(self):
        primary = build_primary()
        replica = ReplicaNode()
        primary.attach_replica(replica)
        primary.database.insert("t", (1, "a"))
        checkpoint(primary.database)
        primary.database.insert("t", (2, "b"))
        primary.ship()
        assert replica.applied_lsn == primary.database.wal.last_lsn
        assert contents(replica.database) == contents(primary.database)

    def test_replica_appends_the_frames_it_was_shipped(self, monkeypatch):
        """A replica adopts each shipped record as it came: its log
        holds the primary's frames, and applying never encodes one."""
        primary = build_primary()
        replica = ReplicaNode()
        primary.attach_replica(replica)
        db = primary.database
        for i in range(4):
            db.insert("t", (i, f"v{i}"), idem=f"k{i}")
        db.delete("t", next(iter(db.catalog.relation("t").scan()))[0])
        checkpoint(db)
        db.update("t", next(iter(db.catalog.relation("t").scan()))[0], v="new")

        def no_encoding(*args, **kwargs):
            raise AssertionError("the replica encoded a shipped record again")

        monkeypatch.setattr(LogRecord, "make", staticmethod(no_encoding))
        primary.ship()
        monkeypatch.undo()
        assert [r.frame for r in replica.database.wal.records()] == [
            r.frame for r in db.wal.records()
        ]
        assert replica.database.wal.last_checkpoint_lsn == db.wal.last_checkpoint_lsn
        assert physical(replica.database) == physical(db)
        # Like an appended record, an adopted one keeps only its frame.
        assert all(r._payload is None for r in replica.database.wal.records())

    def test_adopt_refuses_a_gap(self):
        wal = WriteAheadLog()
        with pytest.raises(EngineError, match="next LSN is 1"):
            wal.adopt(LogRecord.make(2, LogKind.CHECKPOINT, {}))
        assert wal.last_lsn == 0

    def test_drop_is_retransmitted_on_next_pump(self):
        primary = build_primary()
        replica = ReplicaNode()
        link = primary.attach_replica(replica, injector=ship_plan((4, FaultMode.DROP)))
        primary.database.insert("t", (1, "a"))
        primary.database.insert("t", (2, "b"))
        primary.ship()  # occurrence 4 (2 DDL + 2 inserts) is dropped
        assert link.dropped == 1
        assert replica.applied_lsn == primary.database.wal.last_lsn - 1
        primary.ship()  # re-ships from the acked watermark
        assert contents(replica.database) == contents(primary.database)
        assert replica.applied_lsn == primary.database.wal.last_lsn

    def test_duplicate_delivery_ignored(self):
        primary = build_primary()
        replica = ReplicaNode()
        link = primary.attach_replica(
            replica, injector=ship_plan((3, FaultMode.DUPLICATE))
        )
        primary.database.insert("t", (1, "a"))
        primary.ship()
        assert link.duplicated == 1
        assert replica.duplicates_ignored == 1
        assert contents(replica.database) == [(1, "a")]

    def test_reorder_buffered_until_gap_fills(self):
        primary = build_primary()
        replica = ReplicaNode()
        link = primary.attach_replica(
            replica, injector=ship_plan((1, FaultMode.REORDER))
        )
        primary.database.insert("t", (1, "a"))
        primary.ship()  # first send held back, rides behind the second
        assert link.reordered == 1
        assert contents(replica.database) == contents(primary.database)
        assert replica.applied_lsn == primary.database.wal.last_lsn
        assert not replica.pending

    def test_partition_heals_and_converges(self):
        primary = build_primary()
        replica = ReplicaNode()
        link = primary.attach_replica(
            replica, injector=ship_plan((2, FaultMode.PARTITION))
        )
        primary.database.insert("t", (1, "a"))
        primary.ship()  # second send partitions the link
        assert link.partitioned
        behind = replica.applied_lsn
        primary.database.insert("t", (2, "b"))
        assert primary.ship() == 0  # nothing flows on a down link
        assert replica.applied_lsn == behind
        link.heal()
        primary.ship()
        assert contents(replica.database) == contents(primary.database)
        assert replica.applied_lsn == primary.database.wal.last_lsn


class TestEpochFencing:
    def test_fenced_wal_refuses_appends(self):
        primary = build_primary()
        row_id = primary.database.insert("t", (1, "a"))
        primary.database.wal.fence(2)
        with pytest.raises(WALFencedError):
            primary.database.insert("t", (2, "b"))
        with pytest.raises(WALFencedError):
            primary.database.delete("t", row_id)
        with pytest.raises(WALFencedError):
            primary.database.update("t", row_id, v="c")
        # Fenced reads are still fine: the zombie is read-only, not dead.
        assert contents(primary.database) == [(1, "a")]

    def test_stale_epoch_ship_rejected_and_counted(self):
        primary = build_primary(epoch=1)
        replica = ReplicaNode()
        link = primary.attach_replica(replica)
        primary.database.insert("t", (1, "a"))
        primary.ship()
        replica.observe_epoch(2)  # a newer primary was promoted elsewhere
        record = list(primary.database.wal.records())[-1]
        msg = ShippedRecord(
            epoch=1, watermark=primary.database.wal.last_lsn, frame=record.frame
        )
        with pytest.raises(StaleEpochError):
            replica.receive(msg.to_wire())
        link.send(msg.to_wire())  # the link swallows it into a counter
        assert link.stale_epoch_rejects == 1

    def test_newer_epoch_adopted(self):
        replica = ReplicaNode()
        assert replica.epoch == 0
        replica.observe_epoch(5)
        replica.observe_epoch(3)
        assert replica.epoch == 5


def build_pmv_primary():
    """An r/s primary with a managed PMV on a joining template."""
    db = Database(wal=WriteAheadLog())
    db.create_relation(
        "r",
        [
            Column("id", INTEGER, nullable=False),
            Column("c", INTEGER, nullable=False),
            Column("f", INTEGER, nullable=False),
            Column("a", TEXT),
        ],
    )
    db.create_relation(
        "s",
        [
            Column("d", INTEGER, nullable=False),
            Column("g", INTEGER, nullable=False),
            Column("e", TEXT),
        ],
    )
    db.create_index("r_f", "r", ["f"])
    db.create_index("r_c", "r", ["c"])
    db.create_index("s_d", "s", ["d"])
    db.create_index("s_g", "s", ["g"])
    for i in range(24):
        db.insert("r", (i, i % 6, i % 4, f"a{i}"))
    for j in range(12):
        db.insert("s", (j % 6, j % 3, f"e{j}"))
    template = QueryTemplate(
        name="tq",
        relations=("r", "s"),
        select_list=("r.a", "s.e"),
        joins=(JoinEquality("r", "c", "s", "d"),),
        slots=(
            SelectionSlot("r", "r.f", SlotForm.EQUALITY),
            SelectionSlot("s", "s.g", SlotForm.EQUALITY),
        ),
    )
    manager = PMVManager(db)
    manager.create_view(
        template,
        tuples_per_entry=3,
        max_entries=8,
        aux_index_columns=("r.a", "s.e"),
        upper_bound_bytes=4096,
    )
    return PrimaryNode(db, manager=manager), template


def bind(template, f, g):
    return template.bind(
        [EqualityDisjunction("r.f", [f]), EqualityDisjunction("s.g", [g])]
    )


class TestWarmStandbyServing:
    def test_mirrored_views_give_identical_answers(self):
        primary, template = build_pmv_primary()
        replica = ReplicaNode()
        primary.attach_replica(replica)
        primary.ship()
        replica.mirror_views(primary.manager)
        query = bind(template, 1, 2)
        want = sorted(
            tuple(r.values) for r in primary.manager.execute(query).all_rows()
        )
        got = replica.serve(query)
        assert sorted(tuple(r.values) for r in got.all_rows()) == want
        assert got.complete

    def test_lagged_answer_flagged_not_passed_off_as_current(self):
        primary, template = build_pmv_primary()
        replica = ReplicaNode()
        primary.attach_replica(replica)
        primary.ship()
        replica.mirror_views(primary.manager)
        primary.database.insert("r", (100, 1, 1, "new"))  # not shipped yet
        replica.note_watermark(primary.database.wal.last_lsn)
        assert replica.lag == 1
        result = replica.serve(bind(template, 1, 2), staleness_bound=3)
        assert result.complete is False
        assert result.degraded_reason == "replica_lag"

    def test_read_beyond_staleness_bound_refused(self):
        primary, template = build_pmv_primary()
        replica = ReplicaNode()
        primary.attach_replica(replica)
        primary.ship()
        replica.mirror_views(primary.manager)
        for i in range(5):
            primary.database.insert("r", (200 + i, 1, 1, "x"))
        replica.note_watermark(primary.database.wal.last_lsn)
        with pytest.raises(ReplicaLagError) as excinfo:
            replica.serve(bind(template, 1, 2), staleness_bound=2)
        assert excinfo.value.lag == 5
        assert excinfo.value.bound == 2

    def test_applied_deltas_keep_standby_cache_warm(self):
        primary, template = build_pmv_primary()
        replica = ReplicaNode()
        primary.attach_replica(replica)
        primary.ship()
        replica.mirror_views(primary.manager)
        query = bind(template, 1, 2)
        replica.serve(query)  # faults the entry in
        warm = replica.serve(query)
        assert warm.had_partial_results
        # A shipped delta maintains the mirrored view, not just the heap.
        primary.database.insert("r", (300, 2, 1, "a300"))
        primary.ship()
        after = replica.serve(query)
        want = sorted(
            tuple(r.values) for r in primary.manager.execute(query).all_rows()
        )
        assert sorted(tuple(r.values) for r in after.all_rows()) == want


class TestSnapshotBootstrap:
    def test_join_at_checkpoint_then_catch_up(self):
        primary = build_primary()
        for i in range(8):
            primary.database.insert("t", (i, f"v{i}"))
        snap = checkpoint(primary.database)
        primary.database.insert("t", (100, "tail"))
        replica = ReplicaNode.from_snapshot(snapshot_to_json(snap), name="boot")
        assert replica.applied_lsn == snap["checkpoint_lsn"]
        primary.attach_replica(replica)
        primary.ship()  # only the post-checkpoint tail is shipped
        assert contents(replica.database) == contents(primary.database)
        assert physical(replica.database) == physical(primary.database)
        assert replica.applied_lsn == primary.database.wal.last_lsn

    def test_corrupt_snapshot_refused(self):
        primary = build_primary()
        primary.database.insert("t", (1, "a"))
        text = snapshot_to_json(checkpoint(primary.database))
        tampered = text.replace('"v0"', '"vX"', 1).replace('"a"', '"b"', 1)
        with pytest.raises(SnapshotCorruptionError):
            ReplicaNode.from_snapshot(tampered)

    def test_bootstrapped_heap_places_future_rows_like_the_primary(self):
        """Regression: a restored heap must keep the open-page set in
        sync with the open-page list, or the first delete after restore
        re-appends an already-open page and later physically-addressed
        records land on the wrong rows."""
        wal = WriteAheadLog()
        db = Database(wal=wal, page_size=256, buffer_pool_pages=8)
        db.create_relation(
            "t", [Column("id", INTEGER, nullable=False), Column("v", TEXT)]
        )
        ids = [db.insert("t", (i, "x" * 24)) for i in range(20)]
        primary = PrimaryNode(db)
        snap = checkpoint(db)
        replica = ReplicaNode.from_snapshot(
            snapshot_to_json(snap), buffer_pool_pages=8
        )
        primary.attach_replica(replica)
        # Delete from an early (closed) page and from the current open
        # page, then insert: page choice must match the primary's.
        db.delete("t", ids[0])
        db.delete("t", ids[-1])
        db.insert("t", (777, "y" * 24))
        db.update("t", ids[3], v="z" * 24)
        primary.ship()
        assert physical(replica.database) == physical(db)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def build_cluster():
    primary = build_primary()
    fast = ReplicaNode(name="fast")
    slow = ReplicaNode(name="slow")
    fast_link = primary.attach_replica(fast)
    slow_link = primary.attach_replica(slow)
    clock = FakeClock()
    coordinator = FailoverCoordinator(
        primary,
        [fast, slow],
        heartbeat_interval=1.0,
        lease_ttl=4.0,
        clock=clock,
    )
    return primary, fast, slow, fast_link, slow_link, clock, coordinator


class TestFailoverCoordinator:
    def test_needs_replicas(self):
        primary = build_primary()
        with pytest.raises(ReplicationError):
            FailoverCoordinator(primary, [], lease_ttl=4.0)

    def test_heartbeats_keep_primary_alive(self):
        primary, *_, clock, coordinator = build_cluster()
        clock.now = 2.5
        primary.heartbeat(coordinator)
        clock.now = 4.0
        assert not coordinator.primary_suspected()
        assert coordinator.tick() is None

    def test_silence_promotes_most_caught_up_replica(self):
        primary, fast, slow, fast_link, slow_link, clock, coordinator = (
            build_cluster()
        )
        primary.database.insert("t", (1, "a"))
        primary.ship()
        slow_link.partitioned = True  # slow stops hearing anything
        primary.database.insert("t", (2, "b"))
        primary.ship()
        assert fast.applied_lsn > slow.applied_lsn
        clock.now = 10.0
        new_primary = coordinator.tick()
        assert new_primary is not None
        assert new_primary.name == "fast"
        assert new_primary.epoch == 2
        assert coordinator.primary is new_primary
        assert fast.promoted
        # Every acknowledged write survived: the winner holds them all.
        assert new_primary.database.wal.last_lsn >= primary.acked_lsn
        assert contents(new_primary.database) == contents(primary.database)

    def test_old_primary_is_fenced(self):
        primary, *_, clock, coordinator = build_cluster()
        clock.now = 10.0
        coordinator.tick()
        assert primary.database.wal.fenced_by_epoch == 2
        with pytest.raises(WALFencedError):
            primary.database.insert("t", (9, "zombie"))

    def test_survivors_rechain_to_new_primary(self):
        primary, fast, slow, fast_link, slow_link, clock, coordinator = (
            build_cluster()
        )
        primary.database.insert("t", (1, "a"))
        primary.ship()
        clock.now = 10.0
        new_primary = coordinator.tick()
        survivor = coordinator.replicas
        assert len(survivor) == 1
        # Era-2 writes flow through the new chain end to end.
        new_primary.database.insert("t", (2, "era2"))
        new_primary.ship()
        assert contents(survivor[0].database) == contents(new_primary.database)
        assert survivor[0].epoch == 2
        assert coordinator.epoch_history == [1, 2]

    def test_gate_rebinds_to_promoted_fleet(self):
        primary, template = build_pmv_primary()
        replica = ReplicaNode(name="standby")
        primary.attach_replica(replica)
        primary.ship()
        replica.mirror_views(primary.manager)
        clock = FakeClock()
        gate = ServingGate(primary.manager, clock=clock)
        coordinator = FailoverCoordinator(
            primary, [replica], gate=gate, lease_ttl=4.0, clock=clock
        )
        clock.now = 10.0
        new_primary = coordinator.tick()
        assert gate.manager is new_primary.manager
        result = gate.execute(bind(template, 1, 2))
        want = sorted(
            tuple(r.values)
            for r in new_primary.manager.execute(bind(template, 1, 2)).all_rows()
        )
        assert sorted(tuple(r.values) for r in result.all_rows()) == want

    def test_double_promotion_refused(self):
        replica = ReplicaNode()
        replica.promote(2)
        with pytest.raises(ReplicationError):
            replica.promote(2)


class TestLinkConstruction:
    def test_replica_needs_a_wal(self):
        with pytest.raises(ReplicationError):
            ReplicaNode(database=Database())

    def test_primary_needs_a_wal(self):
        with pytest.raises(ReplicationError):
            PrimaryNode(Database())

    def test_link_stats_shape(self):
        primary = build_primary()
        replica = ReplicaNode()
        link = primary.attach_replica(replica)
        primary.database.insert("t", (1, "a"))
        primary.ship()
        assert link.delivered == 3
        assert link.acked_lsn == primary.database.wal.last_lsn
        assert primary.acked_lsn == primary.database.wal.last_lsn
        assert primary.lag_report() == {"replica": 0}
