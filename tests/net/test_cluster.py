"""Cluster front-end behavior over the socket: bounded-staleness
replica reads, semi-sync acked writes, and the client-visible failover
contract (retryable blip, dedup table rebuilt from the promoted WAL)."""

from __future__ import annotations

import pytest

from repro import check
from repro.engine import Database, EqualityDisjunction, WriteAheadLog
from repro.errors import NodeIsolatedError, OverloadError, WALFencedError
from repro.net import ClusterFrontEnd
from repro.net.cluster import IdempotencyTable, classify_error


def bind(template, fs, gs):
    return template.bind(
        [EqualityDisjunction("r.f", list(fs)), EqualityDisjunction("s.g", list(gs))]
    )


class TestIdempotencyTable:
    def test_record_and_seen(self):
        table = IdempotencyTable()
        assert table.seen("c:1") is None
        table.record("c:1", 17)
        assert table.seen("c:1") == 17 and len(table) == 1

    def test_rebuild_replaces_the_timeline(self):
        table = IdempotencyTable()
        table.record("old:1", 3)
        assert table.rebuild({"new:1": 5, "new:2": 9}) == 2
        assert table.seen("old:1") is None
        assert table.seen("new:2") == 9


class TestClassifyError:
    def test_shed_is_retryable_and_marked(self):
        envelope = classify_error(OverloadError("full", reason="queue-full"))
        assert envelope["retryable"] and envelope["shed"]
        assert envelope["reason"] == "queue-full"

    def test_fenced_primary_is_retryable(self):
        envelope = classify_error(WALFencedError("fenced at epoch 2"))
        assert envelope["retryable"] and not envelope["shed"]

    def test_engine_bugs_are_not_retryable(self):
        envelope = classify_error(ValueError("boom"))
        assert not envelope["retryable"]


class TestReplicaReads:
    def test_fresh_replica_serves_with_staleness_stamp(self, cluster_world):
        client = cluster_world.client()
        try:
            # One acked write first, so ship_on_write proves the
            # standbys are caught up before we route to them.
            client.insert("r", [9100, 1, 1, "warm"])
            answer = client.query(
                bind(cluster_world.template, [1], [2]),
                budget=5.0,
                prefer_replica=True,
            )
            assert answer.served_by.startswith("replica-")
            assert answer.replica_lag == 0
        finally:
            client.close()

    def test_lagged_replica_falls_back_to_primary(self, cluster_world):
        client = cluster_world.client()
        try:
            # Mutate the primary behind the replicas' backs (no ship).
            cluster_world.db.insert("r", (9101, 1, 1, "hidden"))
            answer = client.query(
                bind(cluster_world.template, [1], [2]),
                budget=5.0,
                staleness_bound=0,
                prefer_replica=True,
            )
            # The primary answered (no lag stamp), and it saw the row.
            assert answer.replica_lag is None
            stats = client.stats()
            assert stats["net_replica_fallbacks"] >= 1
        finally:
            client.close()


class TestSemiSyncWrites:
    def test_acked_write_is_on_a_standby(self, cluster_world):
        client = cluster_world.client()
        try:
            ack = client.insert("r", [9102, 2, 2, "durable"])
            assert cluster_world.primary.acked_lsn >= ack.lsn
            best = max(r.applied_lsn for r in cluster_world.replicas)
            assert best >= ack.lsn
        finally:
            client.close()


class TestFailoverContract:
    def test_dedup_survives_promotion(self, cluster_world):
        """An acked write's key must answer ``duplicate`` even when the
        retry lands on the *promoted* primary — the table is rebuilt
        from the WAL that the semi-sync rule guarantees contains it."""
        client = cluster_world.client("survivor")
        try:
            first = client._request(
                {"op": "insert", "relation": "r", "values": [9103, 1, 1, "x"], "seq": 1}
            )
            assert first["ok"] and not first["duplicate"]
            promoted = cluster_world.fail_over()
            assert cluster_world.front_end.epoch == promoted.epoch
            retry = client._request(
                {"op": "insert", "relation": "r", "values": [9103, 1, 1, "x"], "seq": 1}
            )
            assert retry["ok"] and retry["duplicate"]
            assert retry["lsn"] == first["lsn"]
            promoted_db = cluster_world.coordinator.primary.database
            count = sum(
                1
                for row in promoted_db.catalog.relation("r").scan_rows()
                if row["id"] == 9103
            )
            assert count == 1
            stats = client.stats()
            assert stats["net_dedup_rebuilds"] >= 1
        finally:
            client.close()

    def test_new_writes_land_on_the_promoted_primary(self, cluster_world):
        client = cluster_world.client("mover")
        try:
            old_db = cluster_world.db
            cluster_world.fail_over()
            ack = client.insert("r", [9104, 3, 3, "fresh"])
            assert not ack.duplicate
            promoted_db = cluster_world.coordinator.primary.database
            assert promoted_db is not old_db
            count = sum(
                1
                for row in promoted_db.catalog.relation("r").scan_rows()
                if row["id"] == 9104
            )
            assert count == 1
            # ... and never on the fenced timeline.
            fenced = sum(
                1
                for row in old_db.catalog.relation("r").scan_rows()
                if row["id"] == 9104
            )
            assert fenced == 0
        finally:
            client.close()

    def test_queries_ride_through_the_blip(self, cluster_world):
        client = cluster_world.client()
        try:
            before = client.query(bind(cluster_world.template, [1], [2]), budget=5.0)
            cluster_world.fail_over()
            after = client.query(bind(cluster_world.template, [1], [2]), budget=5.0)
            assert sorted(after.rows) == sorted(before.rows)
        finally:
            client.close()


class TestIsolatedFrontEnd:
    def test_isolated_primary_refuses_replica_routed_reads(self):
        """A front end whose primary's lease expired must not route a
        read to a standby and stamp its lag against a log it can no
        longer vouch for (nemesis seeds 9 and 10)."""
        database = check.build_rs(Database(wal=WriteAheadLog()), 12, 6)
        template = check.rs_template("tq")
        cluster = check.Cluster(database, check.attach_view(database, template))
        front_end = ClusterFrontEnd(
            cluster.gate, coordinator=cluster.coordinator, staleness_bound=8
        )
        query = check.bind(template, 0, 0)
        served = front_end.execute_query(query, prefer_replica=True)
        assert served["served_by"].startswith("replica-")
        assert served["replica_lag"] == 0

        cluster.clock[0] = 4.5  # the lease ran out; no heartbeat renewed it
        assert cluster.primary.is_isolated()
        with pytest.raises(NodeIsolatedError):
            front_end.execute_query(query, prefer_replica=True)
        assert cluster.primary.isolated_refusals == 1
