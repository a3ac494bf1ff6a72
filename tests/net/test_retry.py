"""Retry discipline: seeded full jitter, typed timeouts, stable
idempotency keys across mixed failures, and exhaustion chaining."""

import random
import socket
import threading

import pytest

from repro.errors import (
    NetError,
    NetTimeoutError,
    OverloadError,
    RetryExhaustedError,
)
from repro.net.client import (
    BACKOFF_FACTOR,
    MAX_DELAY,
    PMVClient,
    RetryPolicy,
    _Connection,
)
from repro.net.cluster import classify_error

from .conftest import SingleNode


class TestJitter:
    def test_delay_is_the_seeded_draw_of_the_ceiling(self):
        policy = RetryPolicy(base_delay=0.02)
        draws = random.Random(1)
        rng = random.Random(1)
        assert policy.delay(0, rng) == draws.random() * 0.02
        assert policy.delay(1, rng) == draws.random() * 0.04
        assert policy.delay(10, rng) == draws.random() * MAX_DELAY  # capped

    def test_full_jitter_within_bounds(self):
        policy = RetryPolicy(base_delay=0.02)
        rng = random.Random(7)
        for attempt in range(12):
            ceiling = min(MAX_DELAY, 0.02 * BACKOFF_FACTOR ** attempt)
            assert 0.0 <= policy.delay(attempt, rng) <= ceiling

    def test_lockstep_regression_two_clients_diverge(self):
        """Pre-jitter, every client slept the identical schedule and the
        thundering herd re-collided after each heal.  Seeded full jitter
        breaks the lockstep while staying replayable per client id."""
        policy = RetryPolicy(base_delay=0.02)
        schedule_a = [policy.delay(i, random.Random("retry:a")) for i in range(6)]
        schedule_b = [policy.delay(i, random.Random("retry:b")) for i in range(6)]
        assert schedule_a != schedule_b  # no lockstep
        replay_a = [policy.delay(i, random.Random("retry:a")) for i in range(6)]
        assert schedule_a == replay_a  # but replayable


class TestTimeouts:
    def test_socket_timeout_becomes_typed_retryable_error(self):
        """A server that accepts but never answers: the client's socket
        timeout surfaces as NetTimeoutError, counted and chained."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        host, port = listener.getsockname()[:2]
        held = []

        def hold():
            while True:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                held.append(conn)  # accept, say nothing

        thread = threading.Thread(target=hold, daemon=True)
        thread.start()
        client = PMVClient(
            "127.0.0.1",
            port,
            "t",
            retry=RetryPolicy(attempts=2, base_delay=0.001),
            socket_timeout=0.05,
        )
        try:
            with pytest.raises(RetryExhaustedError) as excinfo:
                client.ping()
        finally:
            client.close()
            listener.close()
            for conn in held:
                conn.close()
        assert client.timeouts >= 2
        assert isinstance(excinfo.value.cause, NetTimeoutError)
        assert isinstance(excinfo.value.__cause__, NetTimeoutError)
        assert isinstance(excinfo.value.__cause__.__cause__, socket.timeout)

    def test_classify_error_marks_timeout_retryable(self):
        envelope = classify_error(NetTimeoutError("socket timed out"))
        assert envelope["retryable"] is True
        assert envelope["shed"] is False
        assert envelope["error_type"] == "NetTimeoutError"


class TestExhaustion:
    def test_exhaustion_reports_attempts_and_chains_last_error(self):
        client = PMVClient(
            "127.0.0.1",
            1,  # nothing listens on port 1
            "t",
            retry=RetryPolicy(attempts=3, base_delay=0.001),
            connect_timeout=0.05,
        )
        try:
            with pytest.raises(RetryExhaustedError) as excinfo:
                client.ping()
        finally:
            client.close()
        error = excinfo.value
        assert error.attempts == 3
        assert error.cause is not None
        assert error.__cause__ is error.cause
        assert isinstance(error.cause, OSError)


class TestIdempotencyKeyStability:
    def test_same_seq_across_mixed_drop_and_timeout_retries(self, monkeypatch):
        """The idempotency key is fixed before the first send: whatever
        mix of connection drops and timeouts the retries hit, every
        attempt presents the same ``seq`` — at-most-once by dedup."""
        node = SingleNode()
        seqs = []
        failures = iter([socket.timeout("slow"), OSError("reset")])
        real_request = _Connection.request

        def flaky_request(self, message):
            if message.get("op") == "insert":
                seqs.append(message["seq"])
                try:
                    raise next(failures)
                except StopIteration:
                    pass
            return real_request(self, message)

        monkeypatch.setattr(_Connection, "request", flaky_request)
        client = node.client(retry=RetryPolicy(attempts=5, base_delay=0.001))
        try:
            ack = client.insert("r", [900, 1, 1, "x"])
        finally:
            client.close()
            node.server.stop()
        assert len(seqs) == 3  # timeout, reset, success
        assert len(set(seqs)) == 1  # one key, three presentations
        assert not ack.duplicate  # never applied before the final try
        rows = [
            r["id"]
            for r in node.db.catalog.relation("r").scan_rows()
            if r["id"] == 900
        ]
        assert rows == [900]  # applied exactly once

    def test_applied_but_unacked_retry_acks_as_duplicate(self):
        """The poisonous window end to end: the response is dropped
        after the insert applied; the retry must dedup, not re-apply."""
        dropped = {"armed": True}

        def drop(op, request):
            if op == "insert" and dropped["armed"]:
                dropped["armed"] = False
                return True
            return False

        node = SingleNode()
        node.server.drop_before_respond = drop
        client = node.client(retry=RetryPolicy(attempts=5, base_delay=0.001))
        try:
            ack = client.insert("r", [901, 1, 1, "y"])
        finally:
            client.close()
            node.server.stop()
        assert ack.duplicate  # the retry hit the dedup table
        rows = [
            r["id"]
            for r in node.db.catalog.relation("r").scan_rows()
            if r["id"] == 901
        ]
        assert rows == [901]


class TestShedNotRetried:
    def test_shed_surfaces_as_overload_immediately(self, monkeypatch):
        node = SingleNode()
        real_request = _Connection.request

        def shedding_request(self, message):
            if message.get("op") == "ping":
                return {
                    "ok": False,
                    "shed": True,
                    "error": "load shed",
                    "reason": "brownout",
                    "id": message.get("id", 0) if isinstance(message, dict) else 0,
                }
            return real_request(self, message)

        monkeypatch.setattr(_Connection, "request", shedding_request)
        client = node.client(retry=RetryPolicy(attempts=5, base_delay=0.001))
        try:
            with pytest.raises(OverloadError):
                client.ping()
            assert client.retries == 0  # sheds are policy, not retries
        finally:
            client.close()
            node.server.stop()
