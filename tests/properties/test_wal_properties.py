"""Property-based test: crash recovery reproduces the database exactly.

Any interleaving of inserts, deletes, and updates, when replayed from
the write-ahead log into a fresh instance, must yield identical table
contents, identical physical row addressing, and identical index state.
"""

import random
import tempfile

from hypothesis import given, settings, strategies as st

from repro.engine import Column, Database, INTEGER, TEXT, WriteAheadLog, codec, recover
from repro.engine.wal import LogKind
from repro.errors import WALCorruptionError

ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.integers(0, 50),
            st.text(alphabet="abcde", min_size=0, max_size=12),
        ),
        st.tuples(st.just("delete"), st.integers(0, 30), st.just("")),
        st.tuples(
            st.just("update"),
            st.integers(0, 30),
            st.text(alphabet="xyz", min_size=0, max_size=12),
        ),
    ),
    min_size=1,
    max_size=80,
)


@given(ops)
@settings(max_examples=40, deadline=None)
def test_recovery_reproduces_arbitrary_histories(trace):
    wal = WriteAheadLog()
    db = Database(wal=wal)
    db.create_relation(
        "t", [Column("k", INTEGER, nullable=False), Column("v", TEXT)]
    )
    db.create_index("t_k", "t", ["k"])
    live: list = []
    for op, arg, text in trace:
        if op == "insert":
            live.append(db.insert("t", (arg, text)))
        elif op == "delete" and live:
            victim = live.pop(arg % len(live))
            db.delete("t", victim)
        elif op == "update" and live:
            target = live[arg % len(live)]
            _, _, new_id = db.update("t", target, v=text)
            live[live.index(target)] = new_id

    recovered = recover(wal)
    original = {rid: row.values for rid, row in db.catalog.relation("t").scan()}
    replayed = {rid: row.values for rid, row in recovered.catalog.relation("t").scan()}
    assert replayed == original
    # Index state matches: same keys, same posting sizes.
    orig_index = db.catalog.index("t_k")
    rec_index = recovered.catalog.index("t_k")
    assert rec_index.entry_count == orig_index.entry_count
    for key in set(row.values[0] for row in db.catalog.relation("t").scan_rows()):
        assert sorted(rec_index.probe(key)) == sorted(orig_index.probe(key))


@given(ops, st.integers(0, 79))
@settings(max_examples=30, deadline=None)
def test_checkpoint_recovery_from_any_point(trace, cut):
    """Snapshot mid-history, keep writing, recover from the snapshot +
    log tail: the result must equal the live database, wherever the
    checkpoint fell."""
    from repro.engine.snapshot import checkpoint, recover_from_snapshot

    wal = WriteAheadLog()
    db = Database(wal=wal)
    db.create_relation(
        "t", [Column("k", INTEGER, nullable=False), Column("v", TEXT)]
    )
    db.create_index("t_k", "t", ["k"])
    live: list = []
    snap = None
    for step, (op, arg, text) in enumerate(trace):
        if step == cut % max(len(trace), 1):
            snap = checkpoint(db)
        if op == "insert":
            live.append(db.insert("t", (arg, text)))
        elif op == "delete" and live:
            db.delete("t", live.pop(arg % len(live)))
        elif op == "update" and live:
            target = live[arg % len(live)]
            _, _, new_id = db.update("t", target, v=text)
            live[live.index(target)] = new_id
    if snap is None:
        snap = checkpoint(db)
    recovered = recover_from_snapshot(snap, wal)
    original = {rid: row.values for rid, row in db.catalog.relation("t").scan()}
    replayed = {rid: row.values for rid, row in recovered.catalog.relation("t").scan()}
    assert replayed == original


# -- the segment reader fails typed on any bytes ------------------------------


def _seeded_segments(wal_dir: str, seed: int):
    """A 30-record log over 200-byte segments whose oldest segments
    were checkpointed into the archive.  Returns every record's line in
    LSN order and the live segment paths."""
    rng = random.Random(seed)
    wal = WriteAheadLog(path=wal_dir, segment_bytes=200)
    for i in range(30):
        wal.reserve()
        wal.append(
            LogKind.INSERT, {"relation": "t", "values": [i, "v" * rng.randrange(24)]}
        )
        if i == 12:
            wal.checkpoint()
            wal.reclaim()
    wal.close()
    assert wal._archived and len(wal._segments) >= 3
    lines = [record.frame for record in wal.records()]
    return lines, [segment.path for segment in wal._segments]


#: Byte runs random noise would almost never spell: whole lines that
#: are valid JSON but not records, frames with a matching CRC whose
#: document is not a record, blank lines, a bare newline.
_PLAUSIBLE_LINES = [
    b"\n",
    b"\n\n",
    b"  \n",
    b"[]\n",
    b"7\n",
    b"null\n",
    b"{}\n",
    b'{"lsn":"x","kind":"insert","payload":{},"crc":0}\n',
    b'{"lsn":5,"kind":"insert","payload":{"relation":"t","values":[0,""]}}\n',
    codec.encode([]).encode(),
    codec.encode({"lsn": "x", "kind": "insert", "payload": {}}).encode(),
    codec.encode({"lsn": 5, "kind": "insert", "payload": []}).encode(),
]


@given(
    seed=st.integers(0, 3),
    victim=st.integers(0, 63),
    action=st.sampled_from(["overwrite", "insert", "delete"]),
    offset=st.integers(0, 400),
    on_boundary=st.booleans(),
    length=st.integers(0, 120),
    noise=st.one_of(st.binary(max_size=120), st.sampled_from(_PLAUSIBLE_LINES)),
)
@settings(max_examples=120, deadline=None)
def test_damaged_live_segment_loads_a_prefix_or_fails_typed(
    seed, victim, action, offset, on_boundary, length, noise
):
    """Overwrite, insert or delete an arbitrary byte run in one live
    segment.  ``load()`` then either raises ``WALCorruptionError`` or
    yields a prefix of the records that were written — flagged
    ``needs_repair`` when shorter, and ``repair()`` makes that prefix
    the clean log.  Never another exception type, never a record that
    was not written.

    The one loss no reader can see (there is no manifest): the *final*
    segment cut exactly at a record boundary is byte-for-byte a log
    whose last appends never happened."""
    with tempfile.TemporaryDirectory(prefix="wal-fuzz-") as wal_dir:
        written, live = _seeded_segments(wal_dir, seed)
        path = live[victim % len(live)]
        with open(path, "rb") as handle:
            before = handle.read()
        offset %= len(before) + 1
        if on_boundary:  # snap back to the start of the line
            offset = before.rfind(b"\n", 0, offset) + 1
        if action == "overwrite":
            after = before[:offset] + noise + before[offset + len(noise):]
        elif action == "insert":
            after = before[:offset] + noise + before[offset:]
        else:
            after = before[:offset] + before[offset + length:]
        with open(path, "wb") as handle:
            handle.write(after)

        try:
            log = WriteAheadLog.load(wal_dir)
        except WALCorruptionError:
            return
        loaded = [record.frame for record in log.records()]
        assert loaded == written[: len(loaded)]
        if len(loaded) < len(written) and not log.needs_repair:
            assert path == live[-1] and before.startswith(after)
            assert after == b"" or after.endswith(b"\n")
        if log.needs_repair:
            assert log.repair() > 0
            repaired = WriteAheadLog.load(wal_dir)
            assert not repaired.needs_repair
            assert [record.frame for record in repaired.records()] == loaded


@given(
    st.integers(1, 60),
    st.lists(st.integers(1, 60), max_size=4),
    st.sampled_from([96, 200, 512]),
)
@settings(max_examples=30, deadline=None)
def test_tail_reads_seek_across_the_reclaim_boundary(n, checkpoints, segment_bytes):
    """``records(after_lsn=k)`` is the whole log filtered to ``lsn > k``
    for every ``k``, whether the tail starts in the archive, at the
    reclaim boundary or among the resident records."""
    with tempfile.TemporaryDirectory(prefix="wal-seek-") as directory:
        wal = WriteAheadLog(path=directory + "/wal", segment_bytes=segment_bytes)
        for i in range(n):
            wal.reserve()
            wal.append(LogKind.INSERT, {"relation": "t", "values": [i]})
            if i + 1 in checkpoints:
                wal.checkpoint()
                wal.reclaim()
        everything = [r.frame for r in wal.records()]
        assert len(everything) == wal.last_lsn
        for k in range(wal.last_lsn + 2):
            assert [r.frame for r in wal.records(after_lsn=k)] == everything[k:]
        wal.close()
