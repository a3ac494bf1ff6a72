"""Property-based test: every decode entry point of the three checksummed
streams fails typed.

The WAL record decoder, the replica's ship receiver and the snapshot
parser all read the one :mod:`repro.engine.codec` frame.  Fed arbitrary
text, a truncation or a one-byte flip of a valid input, or a
well-framed document that is not theirs, each either returns or raises its own stream's typed error —
never ``ValueError``, ``KeyError``, ``UnicodeError`` or anything else.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Column, Database, INTEGER, TEXT, codec
from repro.engine.snapshot import snapshot_from_json, snapshot_to_json, take_snapshot
from repro.engine.wal import LogKind, LogRecord
from repro.errors import (
    ReplicationError,
    SnapshotCorruptionError,
    WALCorruptionError,
)
from repro.replication import ReplicaNode, ShippedRecord

DATABASE = Database()
DATABASE.create_relation("t", [Column("id", INTEGER, nullable=False), Column("v", TEXT)])
DATABASE.insert("t", (1, "one"))

CREATE = LogRecord.make(
    1,
    LogKind.CREATE_RELATION,
    {"name": "t", "columns": [["id", "integer", False, None], ["v", "text", True, None]]},
).frame
INSERT = LogRecord.make(2, LogKind.INSERT, {"relation": "t", "values": [1, "one"]}).frame


json_documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _flip(text: str, index: int, bit: int) -> str:
    index %= len(text)
    return text[:index] + chr(ord(text[index]) ^ (1 << bit)) + text[index + 1:]


def damaged(valid: str):
    """Arbitrary text, a truncation or a one-byte flip of ``valid``, or a
    well-framed document of any shape."""
    return st.one_of(
        st.text(max_size=120),
        st.integers(0, len(valid)).map(lambda cut: valid[:cut]),
        st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 7)).map(
            lambda spot: _flip(valid, *spot)
        ),
        json_documents.map(codec.encode),
        json_documents.map(lambda document: codec.encode(document)[:-1]),
    )


def _decode_record(text: str) -> None:
    LogRecord.decode(text)


def _receive(text: str) -> None:
    ReplicaNode().receive(text)


def _read_snapshot(text: str) -> None:
    snapshot_from_json(text)


ENTRY_POINTS = {
    "wal-record": (_decode_record, damaged(INSERT), WALCorruptionError),
    "ship-receive": (
        _receive,
        damaged(ShippedRecord(1, 2, CREATE).to_wire()),
        (ReplicationError, WALCorruptionError),
    ),
    "snapshot": (
        _read_snapshot,
        damaged(snapshot_to_json(take_snapshot(DATABASE))),
        SnapshotCorruptionError,
    ),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_decode_entry_point_fails_typed(entry):
    decode, inputs, typed = ENTRY_POINTS[entry]

    @given(inputs)
    @settings(max_examples=150, deadline=None)
    def check(text):
        try:
            decode(text)
        except typed:
            pass

    check()
