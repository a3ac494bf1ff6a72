"""Property-based tests of the wire decoder: any bytes on the socket
give a well-formed message or a typed :class:`NetProtocolError`.

Arbitrary payloads, and valid v3 result frames that are truncated or
have bytes flipped, are fed to ``recv_frame`` over a socketpair.
``struct.error``, ``IndexError``, ``UnicodeDecodeError``, ``ValueError``
or ``OverflowError`` escaping it would fail the property, as would a
message whose rows are not equal-width tuples.
"""

from __future__ import annotations

import socket
import struct

from hypothesis import given, settings, strategies as st

from repro.errors import NetProtocolError
from repro.net import protocol

CELLS = {
    "int64": st.integers(-(2**63), 2**63 - 1),
    "bigint": st.integers(),
    "float": st.floats(allow_nan=False),
    "text": st.text(max_size=6),
    "mixed": st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False)),
}


@st.composite
def answers(draw):
    """Rows of 1-3 typed columns, each kind possibly sprinkled with None."""
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=3))
    cells = [
        st.one_of(st.none(), CELLS[kind]) if draw(st.booleans()) else CELLS[kind]
        for kind in kinds
    ]
    return draw(st.lists(st.tuples(*cells), max_size=12))


def _frame(rows) -> bytes:
    return protocol.encode_frame({"ok": True, "id": 1, "complete": True, "rows": rows})


def _prefixed(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


@st.composite
def damaged_frames(draw):
    frame = bytearray(_frame(draw(answers())))
    how = draw(st.sampled_from(["truncate", "truncate-payload", "flip", "arbitrary"]))
    if how == "truncate":  # the peer dies mid-frame
        return bytes(frame[: draw(st.integers(0, len(frame) - 1))])
    if how == "truncate-payload":  # a consistent prefix around a short body
        payload = frame[4:]
        return _prefixed(bytes(payload[: draw(st.integers(1, len(payload) - 1))]))
    if how == "flip":
        for at in draw(st.lists(st.integers(0, len(frame) - 1), min_size=1, max_size=4)):
            frame[at] ^= draw(st.integers(1, 255))
        return bytes(frame)
    # An arbitrary payload, usually past the version check.
    payload = draw(st.binary(max_size=200))
    if draw(st.booleans()):
        payload = bytes([protocol.PROTOCOL_VERSION]) + payload
    return _prefixed(payload) if payload else draw(st.binary(max_size=16))


def _receive(data: bytes):
    left, right = socket.socketpair()
    try:
        right.settimeout(5.0)
        left.sendall(data)
        left.shutdown(socket.SHUT_WR)
        return protocol.recv_frame(right)
    finally:
        left.close()
        right.close()


@given(damaged_frames())
@settings(max_examples=300, deadline=None)
def test_damaged_frames_decode_or_fail_typed(data):
    try:
        message = _receive(data)
    except NetProtocolError:
        return
    if message is None:
        assert data == b""
        return
    assert isinstance(message, dict)
    if "rows" in message:
        rows = message["rows"]
        assert isinstance(rows, list)
        assert all(type(row) is tuple for row in rows)
        assert len({len(row) for row in rows}) <= 1


@given(answers())
@settings(max_examples=150, deadline=None)
def test_answers_round_trip_with_exact_types(rows):
    message = _receive(_frame(rows))
    assert message["rows"] == rows
    assert [[type(v) for v in row] for row in message["rows"]] == [
        [type(v) for v in row] for row in rows
    ]
