"""Concurrent multi-client stress drill with a serialization checker.

Runs client threads (PMV-mediated queries) against writer threads
(inserts/deletes/updates that trigger PMV maintenance) on one shared
database, then proves the concurrent run equivalent to a
single-threaded one:

- the database logs to an in-memory WAL, appended inside the statement
  latch, so the log *is* the run's serialization order; every query's
  Operation O3 records the WAL position from inside the same latch
  (O3's completion is a query's serialization point — the S lock
  guarantees everything delivered in O2 is re-derived there);
- the log is then replayed single-threaded into a scratch database
  (:mod:`repro.check.oracle`), re-running every query at its stamped
  position; each concurrent result must match the reference run
  **row for row** (multiset equality over ``Ls'`` tuples);
- final base-relation contents of the live and replayed databases must
  agree, the PMV must pass its invariant + no-phantom battery, and no
  thread may die on an unhandled exception — a ``LockError`` escaping
  to a client is exactly the bug this layer exists to rule out;
- one more writer issues statements that *abort* after their prepare
  phase (a row grown past what any page holds): the abort must release
  the X lock it prepared, leave the old row and its index entries in
  place, log nothing, and reach no answer at any later LSN.

Two schedules:

- ``free``: real OS interleaving, 8 clients × 25 queries against 2
  writers × 20 statements — the soak, run on seed 0 only: another seed
  adds wall time, not a reproducible case;
- ``sched``: 3 clients × 6 queries against 2 writers × 8 statements
  under :class:`repro.faults.InterleavingScheduler`, which forces seeded
  thread switches at lock-acquire and O2/O3 seams.  Each seed runs
  twice and must produce the identical decision trace — that identity
  is what makes ``stress/<seed>/sched`` replay the interleaving exactly.
  Its clients query only the four bcps with ``s.g = 0``, while a
  thinning writer deletes the ``s`` rows with ``g = 0`` one by one: each
  delete takes a tuple out of full entries, and the next readers of a
  thinned bcp refill it while another reader of it may sit between its
  O2 and O3 — the interleaving in which an answer must settle against
  the entry snapshot it delivered, not the entry as refilled.
"""

from __future__ import annotations

import random

from repro.check import (
    GEOMETRY,
    RELATIONS,
    Drill,
    Outcome,
    Replay,
    WriteLedger,
    Workers,
    bind,
    build_world,
    check_answers,
    contents_of,
    found_ids,
    handle,
    random_binding,
    record_answer,
)
from repro.errors import LockError, StorageError
from repro.faults import InterleavingScheduler

__all__ = ["DRILL", "run"]

ABORTER_ID_BASE = 10_000_000  # above every ordinary writer's id range
SIZES = {"free": (8, 2, 25, 20), "sched": (3, 2, 6, 8)}
"""Clients, writers, queries per client, statements per writer."""


class _Shared(Workers):
    def __init__(self) -> None:
        super().__init__()
        self.aborter_acked: set[int] = set()
        self.aborted_statements = 0


def _client_body(shared: _Shared, manager, template, seed: int, index: int,
                 queries: int, thinned: bool) -> None:
    """One client: a seeded stream of PMV-mediated queries, over the
    bcps the thinning writer thins when ``thinned``.

    No exception is acceptable here — in particular no LockError: the
    executor must degrade to a bypass, never fail the query.
    """
    rng = random.Random(seed * 10_007 + 101 * index)
    for k in range(queries):
        if thinned:
            query = bind(template, rng.randrange(4), 0)
        else:
            query = random_binding(template, rng)
        _result, answer = record_answer(
            f"c{index}.{k}", query, manager.database, manager.execute
        )
        answer.complete = True  # no deadline here: nothing may be missing
        shared.answers.append(answer)


def _aborting_writer_body(shared: _Shared, database, seed: int, ops: int) -> None:
    """The writer whose statements fail after their prepare phase.

    Each round inserts one row that stays, then tries to grow it past
    what any page holds (a relevant update: its prepare took the view's
    X lock) and to insert a second row just as large.  Both must raise
    :class:`StorageError`, and neither may leave a trace.
    """
    rng = random.Random(seed * 30_013)
    too_big = "x" * GEOMETRY["page_size"]
    for k in range(ops):
        kept = ABORTER_ID_BASE + 2 * k
        row_id = database.insert(
            "r", (kept, rng.randrange(6), rng.randrange(4), f"a{kept}", "fresh")
        )
        shared.aborter_acked.add(kept)
        for doomed in (
            lambda: database.update("r", row_id, a=too_big),
            lambda: database.insert("r", (kept + 1, 0, 0, too_big, "doomed")),
        ):
            try:
                doomed()
            except StorageError:
                shared.aborted_statements += 1
            except LockError:
                shared.lock_aborts.append("a0")  # refused before it could fail
            else:
                raise AssertionError("a row larger than a page was accepted")


def _thinning_writer_body(shared: _Shared, database, ops: int) -> None:
    """The writer that thins entries: deletes the seed rows ``e0``,
    ``e3``, ``e6``, ... of ``s`` — those with ``g = 0`` — one per
    statement.  A full entry holds one ``r`` row's first F matches, one
    per ``s`` row, so each delete takes a tuple out of every full entry
    the deleted ``s`` row joins into.  No other writer touches ``s``."""
    for j in range(0, 3 * ops, 3):
        try:
            database.delete_where("s", lambda row, e=f"e{j}": row["e"] == e)
        except LockError:
            shared.lock_aborts.append("t0")


def _run_once(seed: int, schedule: str) -> tuple[Outcome, list[str]]:
    """One concurrent run, judged; returns it with its decision trace."""
    clients, writers, queries, ops = SIZES[schedule]
    database, manager, template = build_world(seed)
    view = manager.view(template.name)
    shared = _Shared()
    sched = InterleavingScheduler(seed) if schedule == "sched" else None
    thinned = sched is not None
    database.install_scheduler(sched)
    hung = shared.run(
        [(f"c{i}", _client_body, (shared, manager, template, seed, i, queries, thinned))
         for i in range(clients)]
        + [(f"w{i}", shared.writer, (database, seed, i, ops)) for i in range(writers)]
        + [("a0", _aborting_writer_body, (shared, database, seed, ops))]
        + ([("t0", _thinning_writer_body, (shared, database, ops))] if thinned else []),
        scheduler=sched,
    )
    database.install_scheduler(None)
    outcome = Outcome(handle("stress", seed, schedule), shared.errors)
    if hung:
        return outcome, []

    # Post-run invariants on the live database, then the replay check
    # (every stress answer must be complete: equality).
    try:
        view.check_invariants()
        manager.verify_consistency()
    except Exception as exc:
        outcome.violations.append(f"pmv-invariant: {type(exc).__name__}: {exc}")
    replay = Replay(database.wal.records(), **GEOMETRY)
    outcome.violations.extend(map(str, check_answers(shared.answers, replay)))
    # The replayed reference now holds the log's final state: the live
    # database must agree with it, relation for relation.
    if contents_of(database, RELATIONS) != contents_of(replay.advance(), RELATIONS):
        outcome.violations.append("final-contents: live database != replayed log")

    # The aborting writer's rows: the kept ones exactly once, the
    # aborted ones nowhere.
    found = found_ids(database, ABORTER_ID_BASE)
    verdict = WriteLedger(shared.aborter_acked).check(found)
    verdict["aborted-row-present"] = sorted(found.keys() - shared.aborter_acked)
    outcome.violations.extend(f"{kind}: r.id {ids}" for kind, ids in verdict.items() if ids)

    locks = database.lock_manager.stats()
    outcome.counts = {
        "queries_checked": len(shared.answers),
        "records_replayed": replay.records,
        "aborted_statements": shared.aborted_statements,
        "writer_lock_aborts": len(shared.lock_aborts),
        "pmv_bypassed_lock": view.metrics.pmv_bypassed_lock,
        "maintenance_lock_retries": view.metrics.maintenance_lock_retries,
        "locks_held_at_end": locks["active_objects"],
        "lock_waiters_at_end": locks["queued"],
    }
    if sched is not None:
        outcome.counts["decisions"] = sched.decisions
    return outcome, list(sched.trace) if sched is not None else []


def run(seed: int, schedule: str) -> Outcome:
    """One ``free`` run, or a ``sched`` run and its rerun, which must
    pass too and take the identical decision trace."""
    outcome, trace = _run_once(seed, schedule)
    if schedule == "sched":
        again, again_trace = _run_once(seed, schedule)
        outcome.violations.extend(f"rerun: {v}" for v in again.violations)
        if again_trace != trace:
            outcome.violations.append("rerun took a different decision trace")
    return outcome


DRILL = Drill(
    "stress",
    points=lambda seed: ["free", "sched"] if seed == 0 else ["sched"],
    run=run,
    seeds=(0, 1, 2, 3),
)
