"""Socket server + client driver over a real TCP connection: truth
against ``db.run``, deadline propagation, idempotency-keyed DML, and
the retry-after-dropped-response window."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.engine import EqualityDisjunction
from repro.errors import NetError, NetProtocolError, RetryExhaustedError
from repro.net.client import RetryPolicy


def session_threads():
    return [t for t in threading.enumerate() if t.name == "pmv-net-conn"]


def bind(template, fs, gs):
    return template.bind(
        [EqualityDisjunction("r.f", list(fs)), EqualityDisjunction("s.g", list(gs))]
    )


def truth_rows(db, template, fs, gs):
    return sorted(
        (row["r.a"], row["s.e"]) for row in db.run(bind(template, fs, gs))
    )


class TestLifecycle:
    def test_stop_wakes_the_accept_thread(self, single_node):
        """stop() must not sit out the accept thread's join timeout:
        the blocked accept() is woken, the thread exits, and the port
        is free for the next listener."""
        server = single_node.server
        accept_thread = server._accept_thread
        host, port = server.address
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 1.0
        assert not accept_thread.is_alive()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((host, port))
            listener.listen(1)
        finally:
            listener.close()

    def test_stop_wakes_idle_session_threads(self, single_node):
        """An idle pooled connection parks its session thread in recv();
        stop() must wake it rather than leave it for the peer to close."""
        before = set(session_threads())
        client = single_node.client("idle")
        try:
            client.ping()
            sessions = set(session_threads()) - before
            assert sessions
            single_node.server.stop()
            for thread in sessions:
                thread.join(timeout=1.0)
            assert not [thread for thread in sessions if thread.is_alive()]
        finally:
            client.close()

    def test_dropped_connection_applies_nothing(self, single_node):
        """drop_connections() severs the conversation: an insert sent on
        the old pooled connection reaches no session."""
        client = single_node.client("severed")
        try:
            client.ping()  # hello + ping: the connection is now pooled
            (conn,) = client._pool
            assert single_node.server.drop_connections() == 1
            with pytest.raises((OSError, NetProtocolError)):
                conn.request(
                    {"op": "insert", "relation": "r", "values": [9006, 1, 1, "x"], "seq": 1}
                )
            rows = single_node.db.catalog.relation("r").scan_rows()
            assert not [row for row in rows if row["id"] == 9006]
        finally:
            client.close()


class TestQueriesOverTheWire:
    def test_answer_matches_engine_truth(self, single_node):
        client = single_node.client()
        try:
            answer = client.query(bind(single_node.template, [1], [2]), budget=5.0)
            assert answer.complete
            assert answer.columns == ["r.a", "s.e"]
            assert sorted(answer.rows) == truth_rows(
                single_node.db, single_node.template, [1], [2]
            )
        finally:
            client.close()

    def test_zero_budget_degrades_honestly(self, single_node):
        """A spent deadline crosses the wire as an explicit partial
        answer, never an error and never a silent full scan."""
        client = single_node.client()
        try:
            answer = client.query(bind(single_node.template, [1], [2]), budget=0.0)
            assert answer.complete is False
            assert answer.degraded_reason == "deadline-skip"
        finally:
            client.close()

    def test_unknown_op_is_nonretryable_error(self, single_node):
        client = single_node.client()
        try:
            with pytest.raises(NetError, match="unknown op"):
                client._request({"op": "frobnicate"})
        finally:
            client.close()

    def test_stats_include_net_counters(self, single_node):
        client = single_node.client()
        try:
            client.ping()
            stats = client.stats()
            assert stats["net_requests"] >= 2
            assert stats["net_connections_opened"] >= 1
            assert stats["net_requests_by_op"]["ping"] >= 1
            assert stats["epoch"] == 0
        finally:
            client.close()


class TestKeyedDML:
    def test_insert_then_delete_roundtrip(self, single_node):
        client = single_node.client()
        try:
            ack = client.insert("r", [9000, 1, 1, "net"])
            assert not ack.duplicate and ack.lsn > 0
            assert truth_rows(single_node.db, single_node.template, [1], [2])
            gone = client.delete_eq("r", "id", 9000)
            assert gone.deleted == 1 and not gone.duplicate
            rows = [
                row
                for row in single_node.db.catalog.relation("r").scan_rows()
                if row["id"] == 9000
            ]
            assert rows == []
        finally:
            client.close()

    def test_delete_eq_on_indexed_column_probes(self, single_node):
        """``r.c`` carries ``r_c``: the server's delete finds its rows
        through that index, not a scan of ``r``."""
        client = single_node.client()
        try:
            index = single_node.db.catalog.find_index("r", "c")
            probes = index.probes
            gone = client.delete_eq("r", "c", 5)
            assert gone.deleted == 4 and not gone.duplicate
            assert index.probes == probes + 1
            relation = single_node.db.catalog.relation("r")
            assert [row for row in relation.scan_rows() if row["c"] == 5] == []
            assert index.probe(5) == []
        finally:
            client.close()

    def test_retried_delete_eq_reports_unknown_count(self, single_node):
        """A retry answered from the dedup table does not re-run the
        delete, so it cannot say how many rows the original deleted:
        ``deleted`` is None, never a false 0."""
        client = single_node.client("redel")
        request = {
            "op": "delete_eq", "relation": "r", "column": "c", "value": 7, "seq": 3,
        }
        try:
            first = client._request(dict(request))
            second = client._request(dict(request))
            assert not first["duplicate"] and first["deleted"] == 4
            assert second["duplicate"] and second["deleted"] is None
            assert first["lsn"] == second["lsn"]
        finally:
            client.close()

    def test_idem_key_rides_in_the_wal(self, single_node):
        client = single_node.client("walrider")
        try:
            client.insert("r", [9001, 1, 1, "net"])
            keyed = [
                record.payload.get("idem")
                for record in single_node.db.wal.records()
                if record.payload.get("idem")
            ]
            assert keyed == ["walrider:1"]
        finally:
            client.close()

    def test_same_seq_applies_once(self, single_node):
        client = single_node.client("dup")
        try:
            first = client._request(
                {"op": "insert", "relation": "r", "values": [9002, 2, 2, "x"], "seq": 5}
            )
            second = client._request(
                {"op": "insert", "relation": "r", "values": [9002, 2, 2, "x"], "seq": 5}
            )
            assert not first["duplicate"] and second["duplicate"]
            assert first["lsn"] == second["lsn"]
            count = sum(
                1
                for row in single_node.db.catalog.relation("r").scan_rows()
                if row["id"] == 9002
            )
            assert count == 1
        finally:
            client.close()

    def test_seq_without_hello_rejected(self, single_node):
        """The dedup key needs an identity; the protocol refuses to
        guess one."""
        import socket as socket_module

        from repro.net import protocol

        sock = socket_module.create_connection(
            (single_node.host, single_node.port), timeout=5.0
        )
        try:
            protocol.send_frame(
                sock,
                {
                    "id": 1,
                    "op": "insert",
                    "relation": "r",
                    "values": [9003, 1, 1, "x"],
                    "seq": 1,
                },
            )
            response = protocol.recv_frame(sock)
            assert response["ok"] is False
            assert "hello" in response["error"]
            assert response["retryable"] is False
        finally:
            sock.close()


class TestRetryAfterDrop:
    def test_dropped_response_applies_at_most_once(self, single_node):
        """The window the whole mechanism exists for: the server
        applies the write, the connection dies before the ack, the
        client retries the same key, and the data changes once."""
        drops = {"armed": True}

        def drop(op, request):
            if op == "insert" and drops["armed"]:
                drops["armed"] = False
                return True
            return False

        single_node.server.drop_before_respond = drop
        client = single_node.client("dropper")
        try:
            ack = client.insert("r", [9004, 3, 3, "once"])
            assert ack.duplicate  # the retry was answered from the dedup table
            assert client.retries >= 1
            count = sum(
                1
                for row in single_node.db.catalog.relation("r").scan_rows()
                if row["id"] == 9004
            )
            assert count == 1
            stats = client.stats()
            assert stats["net_dedup_hits"] >= 1
        finally:
            single_node.server.drop_before_respond = None
            client.close()

    def test_every_response_dropped_exhausts_retries(self, single_node):
        single_node.server.drop_before_respond = lambda op, request: op == "insert"
        client = single_node.client(
            "doomed", retry=RetryPolicy(attempts=3, base_delay=0.001)
        )
        try:
            with pytest.raises(RetryExhaustedError) as excinfo:
                client.insert("r", [9005, 1, 1, "x"])
            assert excinfo.value.attempts == 3
            # ... but even the doomed retries only ever applied once.
            count = sum(
                1
                for row in single_node.db.catalog.relation("r").scan_rows()
                if row["id"] == 9005
            )
            assert count == 1
        finally:
            single_node.server.drop_before_respond = None
            client.close()

    def test_pool_reuses_connections(self, single_node):
        client = single_node.client("pooled")
        try:
            for _ in range(5):
                client.ping()
            assert client.reconnects == 1
        finally:
            client.close()
