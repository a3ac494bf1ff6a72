"""The one record frame (``repro.engine.codec``): its format, the damage
classification every stream inherits from it, and a guard that keeps
the four checksummed streams on it."""

import ast
import zlib
from pathlib import Path

import pytest

from repro.engine import Column, Database, INTEGER, TEXT, WriteAheadLog, codec
from repro.engine.snapshot import snapshot_from_json, snapshot_to_json, take_snapshot
from repro.engine.wal import LogKind, LogRecord
from repro.errors import SnapshotCorruptionError, WALChecksumError, WALCorruptionError

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


class Corrupt(Exception):
    pass


class Mismatch(Exception):
    pass


def _decode(frame):
    return codec.decode(frame, Corrupt, Mismatch, lambda doc: isinstance(doc, dict))


class TestFrame:
    def test_frame_is_crc_space_compact_json_newline(self):
        frame = codec.encode({"a": [1, "é"]})
        body = '{"a":[1,"\\u00e9"]}'
        assert frame == f"{zlib.crc32(body.encode()):08x} {body}\n"
        assert frame.isascii()

    def test_roundtrip(self):
        document = {"lsn": 3, "values": [1, None, "x", 2.5]}
        assert _decode(codec.encode(document)) == document

    def test_a_record_is_framed_once_and_read_back_from_its_frame(self):
        record = LogRecord.make(4, LogKind.INSERT, {"relation": "t", "values": [1]})
        assert record.frame == codec.encode(
            {"lsn": 4, "kind": "insert", "payload": {"relation": "t", "values": [1]}}
        )
        again = LogRecord.decode(record.frame)
        assert (again.lsn, again.kind, again.frame) == (4, LogKind.INSERT, record.frame)
        assert again.payload == record.payload == {"relation": "t", "values": [1]}


def _record_frame():
    return LogRecord.make(
        2, LogKind.INSERT, {"relation": "t", "values": [7, "seven"]}
    ).frame


def _flipped_body(frame):
    """A one-byte change inside the body that still parses."""
    flipped = frame.replace("seven", "sevem")
    assert flipped != frame
    return flipped


#: (case, damage, classification).  Parse first, CRC second: what does
#: not parse or is not a record is corruption; a record whose stored
#: CRC disagrees is a checksum failure; a line without its newline is
#: torn.
DAMAGE = [
    ("not-a-frame", lambda f: "hello world\n", "corruption"),
    ("plus-prefix", lambda f: "+" + f[1:], "corruption"),
    ("0x-prefix", lambda f: "0x" + f[2:], "corruption"),
    ("upper-hex", lambda f: "ABCDEF01" + f[8:], "corruption"),
    ("no-space", lambda f: f[:8] + "_" + f[9:], "corruption"),
    ("body-not-json", lambda f: f[:9] + f[9:].replace("{", "[", 1), "corruption"),
    ("json-not-a-record", lambda f: codec.encode([2, "insert"]), "corruption"),
    ("flipped-body-byte", _flipped_body, "checksum"),
    ("flipped-crc-digit", lambda f: ("1" if f[0] != "1" else "2") + f[1:], "checksum"),
    ("no-newline", lambda f: f[:-1], "torn"),
]


@pytest.mark.parametrize("case,damage,kind", DAMAGE, ids=[d[0] for d in DAMAGE])
def test_record_decode_classifies_damage(case, damage, kind):
    damaged = damage(_record_frame())
    expected = WALChecksumError if kind == "checksum" else WALCorruptionError
    with pytest.raises(WALCorruptionError) as raised:
        LogRecord.decode(damaged)
    assert type(raised.value) is expected


@pytest.mark.parametrize("case,damage,kind", DAMAGE, ids=[d[0] for d in DAMAGE])
def test_segment_reader_classifies_damage(tmp_path, case, damage, kind):
    """As the final line of a segment: corruption is beyond repair, a
    checksum failure and a torn line are tails ``repair()`` cuts."""
    wal = WriteAheadLog(str(tmp_path / "wal"))
    wal.append(LogKind.CREATE_RELATION, {"name": "t", "columns": []})
    wal.close()
    with open(wal._segments[0].path, "a", encoding="utf-8") as handle:
        handle.write(damage(_record_frame()))
    if kind == "corruption":
        with pytest.raises(WALCorruptionError) as raised:
            WriteAheadLog.load(str(tmp_path / "wal"))
        assert type(raised.value) is WALCorruptionError
        return
    log = WriteAheadLog.load(str(tmp_path / "wal"))
    assert [record.lsn for record in log.records()] == [1]
    assert log.has_torn_tail == (kind == "torn")
    assert log.checksum_failures == (kind == "checksum")
    assert log.repair() > 0


@pytest.mark.parametrize("case,damage,kind", DAMAGE, ids=[d[0] for d in DAMAGE])
def test_snapshot_refuses_every_damage(case, damage, kind):
    database = Database()
    database.create_relation("t", [Column("k", INTEGER), Column("v", TEXT)])
    database.insert("t", (7, "seven"))
    with pytest.raises(SnapshotCorruptionError):
        snapshot_from_json(damage(snapshot_to_json(take_snapshot(database))))


def test_codec_raises_the_classes_it_is_given():
    frame = codec.encode({"k": "seven"})
    with pytest.raises(Corrupt):
        _decode(frame[:-1])
    with pytest.raises(Corrupt):
        _decode(codec.encode([]))
    with pytest.raises(Mismatch):
        _decode(_flipped_body(frame))


# -- the guard -------------------------------------------------------------

STREAMS = ["engine/wal.py", "replication/ship.py", "engine/snapshot.py"]


def _imports(path: Path) -> set[str]:
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
    return found


def test_only_the_codec_imports_zlib():
    importers = sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if "zlib" in _imports(path)
    )
    assert importers == ["engine/codec.py"]


@pytest.mark.parametrize("stream", STREAMS)
def test_no_checksummed_stream_calls_json_itself(stream):
    assert "json" not in _imports(SRC / stream)


def test_the_guard_sees_a_planted_import(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text("import zlib\nfrom json import dumps\n", encoding="utf-8")
    assert {"zlib", "json"} <= _imports(planted)
