"""The session monotonic-read token end to end, and the protocol
version each end speaks.

The client remembers the highest ``applied_lsn`` it observed (scoped
to the serving epoch) and stamps it into every query; a replica whose
watermark trails the token falls back to the primary instead of
showing the session an older database state.  A failover resets the
token — the promoted timeline starts fresh.
"""

from __future__ import annotations

import socket
import struct

import pytest

from repro.engine import EqualityDisjunction
from repro.errors import NetProtocolError
from repro.net import protocol

from .conftest import ClusterWorld


def bind(world, f=1, g=2):
    return world.template.bind(
        [EqualityDisjunction("r.f", [f]), EqualityDisjunction("s.g", [g])]
    )


@pytest.fixture
def world():
    cluster = ClusterWorld()
    yield cluster
    cluster.server.stop()


class TestVersionAcceptance:
    @staticmethod
    def _refused(version: int) -> NetProtocolError:
        left, right = socket.socketpair()
        try:
            header = b'{"op":"ping"}'
            payload = bytes([version]) + struct.pack("<I", len(header)) + header
            left.sendall(struct.pack(">I", len(payload)) + payload)
            with pytest.raises(NetProtocolError, match="unsupported") as refused:
                protocol.recv_frame(right)
            return refused.value
        finally:
            left.close()
            right.close()

    def test_v1_rejected(self):
        self._refused(1)

    def test_v2_rejected(self):
        error = self._refused(2)
        assert str(error).startswith("unsupported protocol version 2 ")

    def test_v3_is_current(self):
        assert protocol.PROTOCOL_VERSION == 3
        assert protocol.encode_frame({"op": "ping"})[4] == 3

    def test_v4_rejected(self):
        self._refused(4)

    def test_routing_stamp_overrides_result_field(self):
        class FakeResult:
            complete = True
            degraded_reason = None
            completeness_estimate = None
            staleness = None
            applied_lsn = None

            class query:
                class template:
                    select_list = ("a",)

            @staticmethod
            def user_values():
                return []

        envelope = protocol.encode_result(FakeResult, epoch=2, applied_lsn=17)
        assert envelope["applied_lsn"] == 17
        assert envelope["epoch"] == 2


class TestSessionToken:
    def test_token_ratchets_from_response_stamps(self, world):
        client = world.client("s1")
        try:
            assert client.session_token() == (None, 0)
            ack = client.insert("r", [900, 1, 1, "x"])
            epoch, lsn = client.session_token()
            assert epoch == ack.epoch == 1
            assert lsn == ack.lsn
            answer = client.query(bind(world), budget=5.0)
            assert answer.epoch == 1
            assert answer.applied_lsn is not None
            assert client.session_token()[1] >= ack.lsn
        finally:
            client.close()

    def test_lagging_replica_falls_back_to_primary(self, world):
        client = world.client("s2")
        try:
            client.insert("r", [901, 1, 1, "x"])
            # Freeze one replica's link: the write still acks through
            # the other, but this replica now lags the session token.
            world.primary.links[1].partitioned = True
            client.insert("r", [902, 1, 1, "y"])
            world.front_end._rr = 0  # next round-robin pick: the laggard
            before = world.front_end.metrics.snapshot()["net_monotonic_fallbacks"]
            answer = client.query(
                bind(world), budget=5.0, staleness_bound=1000, prefer_replica=True
            )
            after = world.front_end.metrics.snapshot()["net_monotonic_fallbacks"]
            assert after == before + 1
            assert answer.replica_lag is None  # the primary served it
            assert answer.applied_lsn >= client.session_token()[1]
        finally:
            world.primary.links[1].heal()
            client.close()

    def test_fresh_replica_serves_with_token(self, world):
        client = world.client("s3")
        try:
            client.insert("r", [903, 1, 1, "x"])
            world.primary.ship()  # replicas fully caught up
            answer = client.query(
                bind(world), budget=5.0, staleness_bound=1000, prefer_replica=True
            )
            assert answer.replica_lag is not None  # replica-served
            assert answer.applied_lsn >= client.session_token()[1]
        finally:
            client.close()

    def test_token_resets_on_epoch_change(self, world):
        client = world.client("s4")
        try:
            client.insert("r", [904, 1, 1, "x"])
            old_epoch, old_lsn = client.session_token()
            assert old_epoch == 1 and old_lsn > 0
            world.fail_over()
            answer = client.query(bind(world), budget=5.0)
            assert answer.epoch == 2
            new_epoch, new_lsn = client.session_token()
            assert new_epoch == 2
            # Reset then re-ratcheted from the post-failover answer.
            assert new_lsn == answer.applied_lsn
        finally:
            client.close()

    def test_stale_token_epoch_ignored_by_router(self, world):
        """A pre-failover LSN floor is meaningless against the promoted
        timeline: the router drops it rather than forcing fallbacks."""
        routed = world.front_end.execute_query(
            bind(world),
            prefer_replica=True,
            staleness_bound=1000,
            min_lsn=10**9,  # absurd floor...
            token_epoch=world.front_end.epoch + 1,  # ...from another epoch
        )
        assert routed["replica_lag"] is not None  # replica still served
