"""Wire-protocol unit tests: framing, versioning, query and result
round-trips."""

from __future__ import annotations

import socket
import struct

import pytest

from repro.engine.datatypes import MINUS_INFINITY, PLUS_INFINITY
from repro.engine.predicate import (
    EqualityDisjunction,
    Interval,
    IntervalDisjunction,
)
from repro.engine import (
    JoinEquality,
    QueryTemplate,
    SelectionSlot,
    SlotForm,
)
from repro.errors import NetProtocolError
from repro.net import protocol
from repro.qos.deadline import Deadline

from tests.net.conftest import make_database, make_template


@pytest.fixture
def pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


class TestFraming:
    def test_roundtrip(self, pair):
        left, right = pair
        message = {"op": "ping", "id": 7, "nested": {"rows": [[1, "a"], [2, None]]}}
        protocol.send_frame(left, message)
        assert protocol.recv_frame(right) == message

    def test_multiple_frames_in_sequence(self, pair):
        left, right = pair
        for n in range(3):
            protocol.send_frame(left, {"id": n})
        assert [protocol.recv_frame(right)["id"] for _ in range(3)] == [0, 1, 2]

    def test_clean_eof_returns_none(self, pair):
        left, right = pair
        left.close()
        assert protocol.recv_frame(right) is None

    def test_eof_mid_frame_is_protocol_error(self, pair):
        left, right = pair
        frame = protocol.encode_frame({"op": "ping"})
        left.sendall(frame[: len(frame) - 2])
        left.close()
        with pytest.raises(NetProtocolError, match="mid-frame"):
            protocol.recv_frame(right)

    def test_zero_length_rejected(self, pair):
        left, right = pair
        left.sendall(struct.pack(">I", 0))
        with pytest.raises(NetProtocolError, match="invalid frame length"):
            protocol.recv_frame(right)

    def test_hostile_length_rejected_before_allocation(self, pair):
        left, right = pair
        left.sendall(struct.pack(">I", protocol.MAX_FRAME_BYTES + 1))
        with pytest.raises(NetProtocolError, match="invalid frame length"):
            protocol.recv_frame(right)

    def test_future_version_rejected(self, pair):
        left, right = pair
        body = b'{"op":"ping"}'
        payload = bytes([protocol.PROTOCOL_VERSION + 1]) + body
        left.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(NetProtocolError, match="unsupported protocol version"):
            protocol.recv_frame(right)

    def test_garbage_body_rejected(self, pair):
        left, right = pair
        payload = bytes([protocol.PROTOCOL_VERSION]) + b"not json"
        left.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(NetProtocolError, match="unparseable"):
            protocol.recv_frame(right)

    def test_non_object_body_rejected(self, pair):
        left, right = pair
        payload = bytes([protocol.PROTOCOL_VERSION]) + b"[1,2]"
        left.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(NetProtocolError, match="JSON object"):
            protocol.recv_frame(right)

    def test_oversize_frame_refused_on_send(self):
        with pytest.raises(NetProtocolError, match="exceeds the cap"):
            protocol.encode_frame({"blob": "x" * (protocol.MAX_FRAME_BYTES + 1)})


class TestQuerySerialization:
    def test_equality_roundtrip(self):
        db = make_database()
        template = make_template()
        db.register_template(template)
        query = template.bind(
            [EqualityDisjunction("r.f", [1, 3]), EqualityDisjunction("s.g", [2])]
        )
        payload = protocol.encode_query(query)
        assert payload["template"] == "Eqt"
        decoded = protocol.decode_query(db.catalog, payload)
        # Re-encoding the decoded query must be byte-identical: the wire
        # form is canonical.
        assert protocol.encode_query(decoded) == payload

    def test_interval_roundtrip_with_infinities(self):
        db = make_database()
        template = QueryTemplate(
            name="Ivt",
            relations=("r", "s"),
            select_list=("r.a", "s.e"),
            joins=(JoinEquality("r", "c", "s", "d"),),
            slots=(
                SelectionSlot("r", "r.f", SlotForm.EQUALITY),
                SelectionSlot("s", "s.g", SlotForm.INTERVAL),
            ),
        )
        db.register_template(template)
        query = template.bind(
            [
                EqualityDisjunction("r.f", [0]),
                IntervalDisjunction(
                    "s.g",
                    [
                        Interval(MINUS_INFINITY, 1, False, True),
                        Interval(3, PLUS_INFINITY, True, False),
                    ],
                ),
            ]
        )
        payload = protocol.encode_query(query)
        bounds = payload["conditions"][1]["intervals"]
        assert bounds[0][0] == {"inf": "-"} and bounds[1][1] == {"inf": "+"}
        decoded = protocol.decode_query(db.catalog, payload)
        assert protocol.encode_query(decoded) == payload
        low, high = decoded.cselect.conditions[1].intervals
        assert low.low is MINUS_INFINITY and high.high is PLUS_INFINITY

    def test_unknown_template_rejected(self):
        db = make_database()
        with pytest.raises(Exception):
            protocol.decode_query(db.catalog, {"template": "ghost", "conditions": []})

    def test_condition_without_values_or_intervals_rejected(self):
        db = make_database()
        template = make_template()
        db.register_template(template)
        with pytest.raises(NetProtocolError, match="neither values nor intervals"):
            protocol.decode_query(
                db.catalog,
                {"template": "Eqt", "conditions": [{"column": "r.f"}]},
            )

    def test_decode_validates_through_bind(self):
        """Malformed remote queries die in bind exactly like local ones."""
        db = make_database()
        template = make_template()
        db.register_template(template)
        with pytest.raises(Exception):
            protocol.decode_query(
                db.catalog,
                {
                    "template": "Eqt",
                    "conditions": [{"column": "r.f", "values": [1]}],  # slot count
                },
            )


class TestResultEncoding:
    @pytest.mark.parametrize("case", ["complete", "deadline-skip", "empty", "replica"])
    def test_result_rows_roundtrip_as_user_rows(self, pair, cluster_world, case):
        """The envelope's value tuples cross a real frame as arrays equal
        to user_rows(), in delivery order (partial results first)."""
        left, right = pair
        world = cluster_world
        fs, gs = ([99], [99]) if case == "empty" else ([1], [2])
        query = world.template.bind(
            [EqualityDisjunction("r.f", fs), EqualityDisjunction("s.g", gs)]
        )
        world.front_end.execute_query(query)  # warm the view
        options = {
            "complete": {},
            "empty": {},
            "deadline-skip": {"deadline": Deadline.after(0.0)},
            "replica": {"prefer_replica": True, "staleness_bound": 4},
        }[case]
        routed = world.front_end.execute_query(query, **options)
        result = routed["result"]
        protocol.send_frame(
            left,
            protocol.encode_result(
                result,
                served_by=routed["served_by"],
                replica_lag=routed["replica_lag"],
                epoch=routed.get("epoch"),
                applied_lsn=routed.get("applied_lsn"),
            ),
        )
        response = protocol.recv_frame(right)
        assert response["rows"] == [list(row.values) for row in result.user_rows()]
        assert response["complete"] is result.complete
        if case == "empty":
            assert response["rows"] == []
        else:
            assert response["rows"]
        if case == "deadline-skip":
            assert response["degraded_reason"] == "deadline-skip"
            assert result.partial_rows
        if case == "replica":
            assert response["served_by"].startswith("replica")
