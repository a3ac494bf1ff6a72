"""Correctness checks, from the bytes on disk and what callers saw.

After a run the checker restores the snapshot file, loads the WAL from
its directory and replays it record by record — exactly what a restart
would do.  On the way it stops at the LSN each sampled answer was
stamped with and asks the recovered database (no view, plain blocking
execution) for the true answer; at the end it compares the recovered
tables with the ledger of acknowledged writes.  One pass therefore
checks answers *and* durability, for socket and in-process workloads
alike, using nothing the system under test reported about itself except
the LSN stamps on its answers.

The answer rule.  An answer was delivered somewhere in an LSN window
``(low, high]``: ``high`` is its stamp, ``low`` the newest state the
caller knew of before asking (for an async-maintained view, the view's
watermark).  With ``O`` the oracle's answer at ``high``:

- a tuple delivered but not in ``O`` must belong to a row written
  inside the window (it was true earlier in the window);
- for a ``complete`` answer, a tuple of ``O`` not delivered must
  likewise belong to a row written inside the window;
- a partial-only answer must say ``complete=False``.

When nothing was written inside the window — every read of a read-only
phase, every in-process read of an eagerly maintained view — this is
multiset equality for full answers and sub-multiset for partial ones.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.engine.row import RowId
from repro.engine.snapshot import restore_snapshot, snapshot_from_json
from repro.engine.wal import LogKind, WriteAheadLog, replay_record
from repro.workload.templates import make_t1

from bench import spec
from bench.loadgen import Entry, _Domains
from bench.streams import WRITE_KINDS
from bench.world import bind

__all__ = ["CheckReport", "verify"]

_ORDERKEY, _LINENUMBER = 0, 5  # positions in T1's select list


@dataclass
class CheckReport:
    answers_checked: int = 0
    partials_checked: int = 0
    writes_checked: int = 0
    wal_records: int = 0
    wal_torn_tail: bool = False
    mismatches: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        if len(self.mismatches) < 20:
            self.mismatches.append(message)
        else:
            self.mismatches[-1] = "... and more"


class _Replay:
    """The recovered database, advanced one WAL record at a time, with
    the LSN at which each order and lineitem key was last written."""

    def __init__(self, snapshot_path: str, wal_dir: str) -> None:
        with open(snapshot_path, encoding="utf-8") as handle:
            self.database = restore_snapshot(snapshot_from_json(handle.read()))
        self.template = self.database.register_template(make_t1())
        self.log = WriteAheadLog.load(wal_dir)
        self._records = self.log.records()
        self.lsn = 0
        self.records = 0
        self.order_written: dict[int, int] = {}
        self.line_written: dict[tuple[int, int], int] = {}

    def advance(self, lsn: int | None) -> None:
        """Replay up to and including ``lsn`` (everything when None)."""
        while lsn is None or self.lsn < lsn:
            record = next(self._records, None)
            if record is None:
                return
            self._note(record)
            replay_record(self.database, record)
            self.lsn = record.lsn
            self.records += 1

    def _note(self, record) -> None:
        payload = record.payload
        if record.kind is LogKind.INSERT:
            values = payload["values"]
        elif record.kind in (LogKind.DELETE, LogKind.UPDATE):
            relation = self.database.catalog.relation(payload["relation"])
            values = relation.fetch(RowId(payload["page_no"], payload["slot_no"])).values
        else:
            return
        if payload["relation"] == "orders":
            self.order_written[values[0]] = record.lsn
        elif payload["relation"] == "lineitem":
            self.line_written[(values[0], values[2])] = record.lsn

    def written_since(self, row: tuple, low: int) -> bool:
        key = (row[_ORDERKEY], row[_LINENUMBER])
        return (
            self.line_written.get(key, 0) > low
            or self.order_written.get(row[_ORDERKEY], 0) > low
        )

    def oracle(self, query) -> Counter:
        names = self.template.select_list
        return Counter(
            tuple(row.project(names).values) for row in self.database.run(query)
        )


def verify(
    shape: spec.Shape,
    snapshot_path: str,
    wal_dir: str,
    entries: list[Entry],
) -> CheckReport:
    """Check every logged read that kept its rows, then the ledger of
    acknowledged writes, against the snapshot + WAL on disk."""
    report = CheckReport()
    reads = [e for e in entries if e.rows is not None and e.error is None]
    replay = _Replay(snapshot_path, wal_dir)
    domains = _Domains(shape)
    memo: dict[tuple, Counter] = {}
    for entry in sorted(reads, key=lambda e: e.high):
        replay.advance(entry.high)
        if replay.lsn != entry.high:
            report.fail(f"answer stamped LSN {entry.high} but the WAL on disk ends at {replay.lsn}")
            continue
        key = (entry.op[1:], entry.high)
        truth = memo.get(key)
        if truth is None:
            truth = memo[key] = replay.oracle(bind(replay.template, *domains.values(entry.op)))
        _check_answer(entry, truth, replay, report)
    replay.advance(None)
    report.wal_records = replay.records
    report.wal_torn_tail = replay.log.has_torn_tail
    _check_durability(replay.database, entries, report)
    return report


def _check_answer(entry: Entry, truth: Counter, replay: _Replay, report: CheckReport) -> None:
    partial = entry.op[0] == "partial"
    if partial:
        report.partials_checked += 1
        if entry.complete:
            report.fail(f"partial-only answer to {entry.op} claims complete=True")
    else:
        report.answers_checked += 1
    delivered = Counter(tuple(row) for row in entry.rows)
    for row in (delivered - truth):
        if not replay.written_since(row, entry.low):
            report.fail(f"{entry.op} at LSN {entry.high}: delivered {row}, not in the true answer")
            return
    if entry.complete:
        for row in (truth - delivered):
            if not replay.written_since(row, entry.low):
                report.fail(f"{entry.op} at LSN {entry.high}: complete answer lacks {row}")
                return


def _check_durability(database, writes: list[Entry], report: CheckReport) -> None:
    """Every acknowledged insert is present exactly once (with its last
    acknowledged update), every acknowledged delete is absent.  A write
    that failed is in doubt and constrains nothing."""
    orders: dict[int, bool] = {}
    lines: dict[tuple[int, int], float | None] = {}  # key -> quantity, None = deleted
    doubtful_orders: set[int] = set()
    for entry in sorted(writes, key=lambda e: e.start):
        kind = entry.op[0]
        if kind not in WRITE_KINDS:
            continue
        if entry.error is not None:
            doubtful_orders.add(entry.op[2] if kind == "del_eq" else entry.op[1])
            continue
        if kind == "ins_order":
            orders[entry.op[1]] = True
        elif kind == "ins_line":
            lines[(entry.op[1], entry.op[3])] = entry.op[4]
        elif kind == "del_line":
            lines[(entry.op[1], entry.op[2])] = None
        elif kind == "upd_line":
            lines[(entry.op[1], entry.op[2])] = entry.op[3]
        elif entry.op[1] == "orders":
            orders[entry.op[2]] = False
        else:
            for key in [k for k in lines if k[0] == entry.op[2]]:
                lines[key] = None
    found_orders = Counter(
        row["orderkey"] for row in database.catalog.relation("orders").scan_rows()
    )
    found_lines: dict[tuple[int, int], list[float]] = {}
    for row in database.catalog.relation("lineitem").scan_rows():
        found_lines.setdefault((row["orderkey"], row["linenumber"]), []).append(row["quantity"])
    for orderkey, present in orders.items():
        if orderkey in doubtful_orders:
            continue
        report.writes_checked += 1
        if found_orders.get(orderkey, 0) != (1 if present else 0):
            report.fail(
                f"order {orderkey}: acknowledged {'insert' if present else 'delete'}, "
                f"recovered {found_orders.get(orderkey, 0)} copies"
            )
    for key, quantity in lines.items():
        if key[0] in doubtful_orders:
            continue
        report.writes_checked += 1
        found = found_lines.get(key, [])
        if quantity is None:
            if found:
                report.fail(f"lineitem {key}: acknowledged delete, recovered {len(found)} copies")
        elif found != [quantity]:
            report.fail(f"lineitem {key}: acknowledged quantity {quantity}, recovered {found}")
