"""The one recorded-history format and the one judge of it.

A drill records what its callers were given — :class:`Answer`\\ s
stamped with the LSN they were serialized at, and a
:class:`WriteLedger` of acknowledged writes — and hands them here with
the log records of the run.  :class:`Replay` rebuilds the state from
those records with the same :func:`~repro.engine.wal.replay_record` a
restart uses, and the reference model (:mod:`repro.check.model`), not
the engine's planner, computes each true answer over it; nothing the
system under test said about itself is trusted except the stamps.

The answer rule (:func:`check_answers`).  An answer was delivered
somewhere in the LSN window ``[low, high]``: ``high`` is its stamp,
``low`` the watermark of an asynchronously maintained view (``None``
when the view is maintained eagerly: the window is the one LSN).

- every delivered tuple was true at some LSN in the window — never a
  phantom, a duplicate, or a tuple from before the window;
- a ``complete`` answer also holds every tuple true at ``high``.

With a one-LSN window that is multiset **equality** for a ``complete``
answer and **sub-multiset** for a partial one.

The ledger rule (:meth:`WriteLedger.check`).  Per client-owned row id:
an acknowledged insert is present exactly once unless its delete was
acknowledged too, in which case it is absent; a delete whose outcome
the client never learned excuses both.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from repro.check.model import true_answer
from repro.engine import Database
from repro.engine.wal import replay_record

__all__ = [
    "Answer",
    "Replay",
    "Violation",
    "WriteLedger",
    "check_answers",
    "found_ids",
    "multiset",
    "record_answer",
]


def multiset(rows: Iterable) -> Counter:
    """Rows (engine rows or plain value tuples) as a counting multiset."""
    return Counter(tuple(getattr(row, "values", row)) for row in rows)


@dataclass
class Answer:
    """One delivered answer, as the caller saw it."""

    label: str
    query: object
    rows: Counter
    """:func:`multiset` of the delivered tuples: over ``Ls'`` for an
    in-process result, over the select list alone for a wire answer."""
    complete: bool
    high: int
    low: int | None = None

    @property
    def start(self) -> int:
        """First LSN of the delivery window."""
        return self.high if self.low is None else min(self.low, self.high)


def record_answer(label: str, query, database: Database, serve, **options):
    """Run ``serve(query, on_o3=..., **options)`` (an executor, manager
    or gate method) and return ``(result, Answer)``, the answer stamped
    with the WAL position read at its serialization point: ``on_o3``
    fires inside the statement latch, for complete *and* degraded
    answers, where no append can interleave."""
    stamp: list[int] = []
    result = serve(
        query, on_o3=lambda _q: stamp.append(database.current_lsn()), **options
    )
    rows = multiset(result.all_rows())
    return result, Answer(label, query, rows, result.complete, stamp[0])


@dataclass(frozen=True)
class Violation:
    answer: Answer
    kind: str  # phantom | missing | unreplayable
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: answer {self.answer.label} {self.detail}"


class Replay:
    """A scratch database advanced through ``records`` one LSN at a time.

    ``database_options`` must give the page geometry of the database
    that wrote the records: replay addresses rows physically.
    """

    def __init__(self, records: Iterable, **database_options) -> None:
        self.database = Database(**database_options)
        self._records = iter(records)
        self.lsn = 0
        self.records = 0

    def advance(self, lsn: int | None = None) -> Database:
        """Replay up to and including ``lsn`` (everything when None)."""
        while lsn is None or self.lsn < lsn:
            record = next(self._records, None)
            if record is None:
                break
            replay_record(self.database, record)
            self.lsn = record.lsn
            self.records += 1
        return self.database


def check_answers(answers: Iterable[Answer], replay: Replay) -> list[Violation]:
    """Judge every answer against a fresh ``replay``, which is consumed
    up to the newest stamp (the caller may advance it further)."""
    starts: dict[int, list[Answer]] = {}
    last = 0
    for answer in answers:
        starts.setdefault(answer.start, []).append(answer)
        last = max(last, answer.high)
    violations: list[Violation] = []
    window: list[tuple[Answer, Counter]] = []  # open answers, tuples true so far
    for lsn in range(min(starts, default=0), last + 1):
        window.extend((answer, Counter()) for answer in starts.get(lsn, ()))
        if not window:
            continue
        replay.advance(lsn)
        if replay.lsn != lsn:
            violations.extend(
                Violation(
                    answer,
                    "unreplayable",
                    f"is stamped LSN {answer.high} but the replay stands at {replay.lsn}",
                )
                for answer, _ in window
            )
            break
        still_open = []
        for answer, true_so_far in window:
            width = len(next(iter(answer.rows), ())) or None
            truth = true_answer(replay.database, answer.query, width)
            true_so_far |= truth  # per-tuple maximum over the window
            if lsn < answer.high:
                still_open.append((answer, true_so_far))
                continue
            phantom = answer.rows - true_so_far
            missing = truth - answer.rows if answer.complete else None
            if phantom:
                detail = (
                    f"delivered {min(phantom, key=repr)!r}, not true "
                    f"anywhere in LSN window [{answer.start}, {lsn}]"
                )
                violations.append(Violation(answer, "phantom", detail))
            elif missing:
                detail = f"claims complete at LSN {lsn} but lacks {min(missing, key=repr)!r}"
                violations.append(Violation(answer, "missing", detail))
        window = still_open
    return violations


def found_ids(database: Database, floor: int = 0) -> Counter:
    """How often each ``r.id >= floor`` (the client-owned range) occurs."""
    rows = database.catalog.relation("r").scan_rows()
    return Counter(row["id"] for row in rows if row["id"] >= floor)


@dataclass
class WriteLedger:
    """What the clients were told about the rows they own."""

    acked_inserts: Iterable[int]
    acked_deletes: Iterable[int] = ()
    indoubt_deletes: Iterable[int] = ()

    def check(self, found: Counter) -> dict[str, list[int]]:
        """``found`` is :func:`found_ids` of the surviving table."""
        deleted, indoubt = set(self.acked_deletes), set(self.indoubt_deletes)
        verdict: dict[str, list[int]] = {
            "duplicate": sorted(i for i, count in found.items() if count > 1),
            "resurrected": [],
            "lost": [],
        }
        for row_id in sorted(self.acked_inserts):
            if row_id in deleted:
                if found[row_id]:
                    verdict["resurrected"].append(row_id)
            elif row_id not in indoubt and not found[row_id]:
                verdict["lost"].append(row_id)
        return verdict
