"""Wire-protocol unit tests: framing, versioning, query and result
round-trips, and answers that keep the exact type of every cell."""

from __future__ import annotations

import math
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


def raw_frame(header: bytes, block: bytes = b"", version: int = 3) -> bytes:
    """A frame laid out by hand: version, header length, header, block."""
    payload = bytes([version]) + struct.pack("<I", len(header)) + header + block
    return struct.pack(">I", len(payload)) + payload


def column(tag: int, data: bytes) -> bytes:
    return struct.pack("<BI", tag, len(data)) + data


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
        left.sendall(raw_frame(b'{"op":"ping"}', version=protocol.PROTOCOL_VERSION + 1))
        with pytest.raises(NetProtocolError, match="unsupported protocol version"):
            protocol.recv_frame(right)

    def test_garbage_body_rejected(self, pair):
        left, right = pair
        left.sendall(raw_frame(b"not json"))
        with pytest.raises(NetProtocolError, match="unparseable"):
            protocol.recv_frame(right)

    def test_non_object_body_rejected(self, pair):
        left, right = pair
        left.sendall(raw_frame(b"[1,2]"))
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
        """The envelope's value tuples cross a real frame as typed columns
        and come back as the same tuples as user_values(), in delivery
        order (partial results first)."""
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
        assert response["rows"] == result.user_values()
        assert response["rows"] == [row.values for row in result.user_rows()]
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


class _Answer:
    """The surface encode_result reads, over fixed rows."""

    complete = True
    degraded_reason = None
    completeness_estimate = None
    staleness = None
    applied_lsn = None

    def __init__(self, rows):
        self.rows = rows
        width = len(rows[0]) if rows else 1
        self.query = type(
            "Q", (), {"template": type("T", (), {"select_list": ("c",) * width})}
        )

    def user_values(self):
        return self.rows


class TestExactTypes:
    """encode_result -> send_frame -> recv_frame gives back user_values()
    with the same type() in every cell."""

    @pytest.mark.parametrize(
        "rows",
        [
            [(17.0, 1), (2.5, -3)],
            [(-0.0, math.inf), (-math.inf, 1e308)],
            [(-1, -(2**63)), (2**63 - 1, 0)],
            [(2**63,), (-(2**63) - 1,), (2**100,)],
            [(1, 1.0, "a"), (None, None, None), (3, 3.5, "c")],
            [(None,), (None,)],
            [(True, 1), (False, 0)],
            [(1, 2.0), ("x", None)],
            [("żółw", "日本"), ("naïve", "")],
            [("a\0b", "x"), ("\0", "y"), ("", "z")],
            [("\ud800",), ("ok",)],
            [],
        ],
        ids=[
            "whole-float-stays-float",
            "negative-zero-and-infinities",
            "int64-edges",
            "ints-beyond-64-bits",
            "none-in-int-float-text",
            "all-none",
            "bool-is-not-int",
            "mixed-types",
            "non-ascii-text",
            "text-holding-nul",
            "lone-surrogate",
            "empty-answer",
        ],
    )
    def test_cells_keep_value_and_type(self, pair, rows):
        left, right = pair
        protocol.send_frame(left, protocol.encode_result(_Answer(rows), epoch=1))
        response = protocol.recv_frame(right)
        assert response["rows"] == rows
        assert all(type(row) is tuple for row in response["rows"])
        assert [[type(v) for v in row] for row in response["rows"]] == [
            [type(v) for v in row] for row in rows
        ]
        signs = [[math.copysign(1, v) for v in row if type(v) is float] for row in rows]
        assert signs == [
            [math.copysign(1, v) for v in row if type(v) is float]
            for row in response["rows"]
        ]
        assert response["epoch"] == 1 and response["ok"] is True

    def test_ragged_rows_refused_on_send(self):
        with pytest.raises(NetProtocolError, match="unequal width"):
            protocol.encode_frame({"rows": [(1, 2), (3,)]})


class TestMalformedColumns:
    """Every size in the column block is checked before it is read."""

    @pytest.mark.parametrize(
        "header, block, match",
        [
            (b'{"rows":2}', b"", "cut off before its column count"),
            (b'{"rows":-1}', struct.pack("<I", 0), "invalid row count"),
            (b'{"rows":true}', struct.pack("<I", 1), "invalid row count"),
            (b'{"rows":2}', struct.pack("<I", 0), "cannot hold"),
            (b'{"rows":0}', struct.pack("<I", 1) + column(1, b""), "cannot hold"),
            (b'{"rows":2}', struct.pack("<I", 1) + column(1, b"\0" * 8), "8-byte values"),
            (b'{"rows":2}', struct.pack("<I", 1) + column(3, b"a\0b\0c"), "3 values, not 2"),
            (b'{"rows":1}', struct.pack("<I", 1) + column(3, b"\xff"), "unparseable column"),
            (b'{"rows":2}', struct.pack("<I", 1) + column(4, b"\1\0\0\0"), "lacks its sizes"),
            (
                b'{"rows":1}',
                struct.pack("<I", 1) + column(4, struct.pack("<I", 5) + b"ab"),
                "do not add up",
            ),
            (b'{"rows":1}', struct.pack("<I", 1) + column(5, b'{"a":1}'), "not a list"),
            (b'{"rows":1}', struct.pack("<I", 1) + column(5, b"[1,2]"), "2 values, not 1"),
            (b'{"rows":1}', struct.pack("<I", 1) + column(9, b"x"), "unknown column tag"),
            (
                b'{"rows":1}',
                struct.pack("<I", 2) + column(3, b"a") + column(3, b"a\0b"),
                "2 values, not 1",
            ),
            (
                b'{"rows":1}',
                struct.pack("<I", 1) + struct.pack("<BI", 3, 99) + b"a",
                "overruns the frame",
            ),
            (b'{"rows":1}', struct.pack("<I", 1) + column(3, b"a") + b"!", "trail the column"),
            (b'{"op":"ping"}', b"!", "trail a header without rows"),
        ],
    )
    def test_typed_error(self, pair, header, block, match):
        left, right = pair
        left.sendall(raw_frame(header, block))
        with pytest.raises(NetProtocolError, match=match):
            protocol.recv_frame(right)

    def test_header_longer_than_the_payload(self, pair):
        left, right = pair
        payload = bytes([3]) + struct.pack("<I", 50) + b"{}"
        left.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(NetProtocolError, match="unparseable frame"):
            protocol.recv_frame(right)

    def test_payload_shorter_than_a_header_length(self, pair):
        left, right = pair
        left.sendall(struct.pack(">I", 3) + bytes([3, 0, 0]))
        with pytest.raises(NetProtocolError, match="hold no header"):
            protocol.recv_frame(right)
