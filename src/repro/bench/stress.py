"""Concurrent multi-client stress driver with a serialization checker.

Runs N client threads (PMV-mediated queries) against M writer threads
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

Two modes:

- **free-running** (default): real OS interleaving, the throughput/
  correctness soak;
- **deterministic** (``--sched-seeds``): the same workload under
  :class:`repro.faults.InterleavingScheduler`, which forces seeded
  thread switches at lock-acquire and O2/O3 seams.  Each seed runs
  twice and must produce the identical decision trace — the replay
  handle ``sched/<seed>`` reproduces the interleaving exactly, torture-
  harness style::

      python -m repro.bench.stress --replay sched/3

  Run the CI sweep::

      python -m repro.bench.stress --sched-seeds 4 --report STRESS_report.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field

from repro.check import (
    RELATIONS,
    Answer,
    Replay,
    WriteLedger,
    attach_view,
    build_rs,
    check_answers,
    found_ids,
    random_binding,
    record_answer,
    rs_template,
    strategy_for_seed,
)
from repro.core import PMVManager
from repro.engine import Database, WriteAheadLog
from repro.errors import LockError, StorageError
from repro.faults import InterleavingScheduler
from repro.faults.check import contents_of

__all__ = [
    "GEOMETRY",
    "StressConfig",
    "StressResult",
    "build_world",
    "run_stress",
    "sweep_interleavings",
    "main",
]

JOIN_TIMEOUT = 120.0
GEOMETRY = {"buffer_pool_pages": 64, "page_size": 1024}
ABORTER_ID_BASE = 10_000_000  # above every ordinary writer's id range


@dataclass(frozen=True)
class StressConfig:
    """Shape of one stress run."""

    seed: int = 0
    clients: int = 8
    writers: int = 2
    queries_per_client: int = 25
    ops_per_writer: int = 20
    deterministic: bool = False  # install the interleaving scheduler


@dataclass
class StressResult:
    """Outcome of one stress run (serialized into the report)."""

    config: StressConfig
    ok: bool = True
    queries_checked: int = 0
    changes_applied: int = 0
    """WAL records replayed: DML statements plus the DDL and seed rows."""
    mismatches: list[dict] = field(default_factory=list)
    thread_errors: list[dict] = field(default_factory=list)
    writer_lock_aborts: int = 0
    aborted_statements: int = 0
    lock_stats: dict = field(default_factory=dict)
    pmv_bypassed_lock: int = 0
    maintenance_lock_retries: int = 0
    sched_decisions: int = 0
    sched_trace: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def handle(self) -> str:
        mode = "sched" if self.config.deterministic else "free"
        return f"{mode}/{self.config.seed}"


# ---------------------------------------------------------------------------
# Shared fixture: the r/s world with the ``note`` column, WAL-logged
# ---------------------------------------------------------------------------


def build_world(seed: int) -> tuple[Database, PMVManager, object]:
    """Database, manager and template of one stress/overload world."""
    database = build_rs(Database(wal=WriteAheadLog(), **GEOMETRY), 60, 24, note=True)
    template = rs_template("sq")
    manager = attach_view(
        database, template, strategy_for_seed(seed), upper_bound_bytes=4096
    )
    return database, manager, template


# ---------------------------------------------------------------------------
# Worker bodies
# ---------------------------------------------------------------------------


class _Shared:
    """State shared by all worker threads of one run.

    Every answer carries its exact serialization position in the WAL
    (:func:`repro.check.record_answer`).
    """

    def __init__(self) -> None:
        self.answers: list[Answer] = []
        self.errors: list[dict] = []
        self.writer_lock_aborts = 0
        self.aborter_acked: set[int] = set()
        self.aborted_statements = 0

    def record_error(self, name: str, exc: BaseException) -> None:
        self.errors.append(
            {
                "thread": name,
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            }
        )


def _client_body(
    shared: _Shared, manager: PMVManager, template, config: StressConfig, index: int
) -> None:
    """One client: a seeded stream of PMV-mediated queries.

    No exception is acceptable here — in particular no LockError: the
    executor must degrade to a bypass, never fail the query.
    """
    rng = random.Random(config.seed * 10_007 + 101 * index)
    name = f"c{index}"
    try:
        for k in range(config.queries_per_client):
            _result, answer = record_answer(
                f"{name}.{k}",
                random_binding(template, rng),
                manager.database,
                manager.execute,
            )
            answer.complete = True  # no deadline here: nothing may be missing
            shared.answers.append(answer)
    except BaseException as exc:  # recorded, fails the run
        shared.record_error(name, exc)


def _writer_body(
    shared: _Shared, database: Database, config: StressConfig, index: int
) -> None:
    """One writer: seeded DML over its OWN partition of ``r``.

    Each writer inserts rows with ids from a private range and only
    deletes/updates rows it inserted, so writers never race each other
    for the same logical row — the contention under test is
    reader/maintainer locking, not lost-update semantics the engine
    does not claim to provide.
    """
    rng = random.Random(config.seed * 20_011 + 307 * index)
    name = f"w{index}"
    next_id = 100_000 * (index + 1)
    owned: dict[int, object] = {}  # id -> current RowId
    try:
        for _ in range(config.ops_per_writer):
            roll = rng.random()
            try:
                if roll < 0.45 or not owned:  # insert
                    values = (
                        next_id,
                        rng.randrange(6),
                        rng.randrange(4),
                        f"w{index}a{next_id}",
                        "fresh",
                    )
                    owned[next_id] = database.insert("r", values)
                    next_id += 1
                elif roll < 0.75:  # delete an owned row
                    victim = rng.choice(sorted(owned))
                    database.delete("r", owned.pop(victim))
                else:  # update an owned row
                    victim = rng.choice(sorted(owned))
                    if rng.random() < 0.7:
                        # Relevant update (r.a is in Ls'): needs the X lock.
                        changes = {"a": f"w{index}r{rng.randrange(999)}"}
                    else:
                        # Irrelevant update (r.note): maintenance-free.
                        changes = {"note": f"n{rng.randrange(999)}"}
                    _, _, new_id = database.update("r", owned[victim], **changes)
                    owned[victim] = new_id
            except Exception as exc:
                if isinstance(exc, LockError):
                    # The maintainer exhausted its waits+retries against
                    # a burst of readers: the statement aborted cleanly
                    # (no base change, nothing logged).  Count and move on.
                    shared.writer_lock_aborts += 1
                    continue
                raise
    except BaseException as exc:
        shared.record_error(name, exc)


def _aborting_writer_body(
    shared: _Shared, database: Database, config: StressConfig
) -> None:
    """The writer whose statements fail after their prepare phase.

    Each round inserts one row that stays, then tries to grow it past
    what any page holds (a relevant update: its prepare took the view's
    X lock) and to insert a second row just as large.  Both must raise
    :class:`StorageError`, and neither may leave a trace.
    """
    rng = random.Random(config.seed * 30_013)
    too_big = "x" * GEOMETRY["page_size"]
    try:
        for k in range(config.ops_per_writer):
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
                    shared.writer_lock_aborts += 1  # refused before it could fail
                else:
                    raise AssertionError("a row larger than a page was accepted")
    except BaseException as exc:
        shared.record_error("a0", exc)


# ---------------------------------------------------------------------------
# Reference replay + checks
# ---------------------------------------------------------------------------


def _replay_and_check(shared: _Shared, database: Database, result: StressResult) -> Database:
    """Replay the WAL single-threaded and judge every query at its
    stamp (every stress answer must be complete: equality).

    Returns the reference database, which after the full replay holds
    the log's final logical state."""
    replay = Replay(database.wal.records(), **GEOMETRY)
    for violation in check_answers(shared.answers, replay):
        result.mismatches.append(
            {
                "kind": "query-divergence",
                "query": violation.answer.label,
                "detail": str(violation),
            }
        )
    result.queries_checked = len(shared.answers)
    reference = replay.advance()
    result.changes_applied = replay.records
    return reference


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def run_stress(config: StressConfig) -> StressResult:
    """Run one concurrent workload and verify it against the reference."""
    started = time.perf_counter()
    result = StressResult(config=config)
    database, manager, template = build_world(config.seed)
    view = manager.view(template.name)
    shared = _Shared()

    sched = InterleavingScheduler(config.seed) if config.deterministic else None
    if sched is not None:
        database.install_scheduler(sched)

    bodies = [
        (f"c{i}", _client_body, (shared, manager, template, config, i))
        for i in range(config.clients)
    ] + [
        (f"w{i}", _writer_body, (shared, database, config, i))
        for i in range(config.writers)
    ] + [("a0", _aborting_writer_body, (shared, database, config))]
    if sched is not None:
        threads = [sched.spawn(name, body, *args) for name, body, args in bodies]
    else:
        threads = [
            threading.Thread(target=body, args=args, name=name, daemon=True)
            for name, body, args in bodies
        ]
    for thread in threads:
        thread.start()
    if sched is not None:
        sched.launch()
    deadline = time.monotonic() + JOIN_TIMEOUT
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    hung = [t.name for t in threads if t.is_alive()]
    if sched is not None:
        database.install_scheduler(None)
        result.sched_decisions = sched.decisions
        result.sched_trace = list(sched.trace)
    if hung:
        result.ok = False
        result.thread_errors.append(
            {"thread": ",".join(hung), "error": "hang: join timed out", "traceback": ""}
        )
        result.elapsed_seconds = time.perf_counter() - started
        return result

    # Post-run invariants on the live database, then the replay check.
    try:
        view.check_invariants()
        manager.verify_consistency()
    except Exception as exc:
        result.mismatches.append(
            {"kind": "pmv-invariant", "detail": f"{type(exc).__name__}: {exc}"}
        )
    reference = _replay_and_check(shared, database, result)
    # The replayed reference now holds the log's final state: the live
    # database must agree with it, relation for relation.
    if contents_of(database, RELATIONS) != contents_of(reference, RELATIONS):
        result.mismatches.append(
            {"kind": "final-contents", "detail": "live DB != replayed log"}
        )

    # The aborting writer's rows: the kept ones exactly once, the
    # aborted ones nowhere.
    found = found_ids(database, ABORTER_ID_BASE)
    verdict = WriteLedger(shared.aborter_acked).check(found)
    verdict["aborted-row-present"] = sorted(found.keys() - shared.aborter_acked)
    for kind, ids in verdict.items():
        if ids:
            result.mismatches.append({"kind": kind, "detail": f"r.id {ids}"})

    result.thread_errors.extend(shared.errors)
    result.writer_lock_aborts = shared.writer_lock_aborts
    result.aborted_statements = shared.aborted_statements
    result.lock_stats = database.lock_manager.stats()
    result.pmv_bypassed_lock = view.metrics.pmv_bypassed_lock
    result.maintenance_lock_retries = view.metrics.maintenance_lock_retries
    result.ok = not result.mismatches and not result.thread_errors
    result.elapsed_seconds = time.perf_counter() - started
    return result


# ---------------------------------------------------------------------------
# Deterministic interleaving sweep
# ---------------------------------------------------------------------------


def sweep_interleavings(
    seeds: list[int],
    clients: int = 3,
    writers: int = 2,
    queries_per_client: int = 6,
    ops_per_writer: int = 8,
) -> list[dict]:
    """Run each seed twice under the scheduler: both runs must pass the
    serialization check AND produce the identical decision trace —
    that identity is what makes ``sched/<seed>`` a replay handle."""
    outcomes = []
    for seed in seeds:
        config = StressConfig(
            seed=seed,
            clients=clients,
            writers=writers,
            queries_per_client=queries_per_client,
            ops_per_writer=ops_per_writer,
            deterministic=True,
        )
        first = run_stress(config)
        second = run_stress(config)
        deterministic = first.sched_trace == second.sched_trace
        outcomes.append(
            {
                "handle": first.handle,
                "ok": first.ok and second.ok and deterministic,
                "run1_ok": first.ok,
                "run2_ok": second.ok,
                "deterministic_replay": deterministic,
                "decisions": first.sched_decisions,
                "queries_checked": first.queries_checked,
                "mismatches": first.mismatches + second.mismatches,
                "thread_errors": first.thread_errors + second.thread_errors,
            }
        )
    return outcomes


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _result_dict(result: StressResult) -> dict:
    data = asdict(result)
    data["handle"] = result.handle
    # The full trace is replay material, not report material.
    data["sched_trace"] = data["sched_trace"][-20:]
    return data


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.stress", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--writers", type=int, default=2)
    parser.add_argument("--queries", type=int, default=25, help="queries per client")
    parser.add_argument("--ops", type=int, default=20, help="DML ops per writer")
    parser.add_argument(
        "--sched-seeds",
        type=int,
        default=0,
        metavar="N",
        help="instead of one free run, sweep seeds 0..N-1 deterministically "
        "(each run twice, traces must match)",
    )
    parser.add_argument(
        "--replay",
        metavar="HANDLE",
        help="replay one handle, e.g. sched/3 or free/0",
    )
    parser.add_argument("--report", metavar="PATH", help="write a JSON report")
    args = parser.parse_args(argv)

    report: dict
    if args.replay:
        mode, _, seed_text = args.replay.partition("/")
        config = StressConfig(
            seed=int(seed_text),
            clients=args.clients if mode == "free" else 3,
            writers=args.writers if mode == "free" else 2,
            queries_per_client=args.queries if mode == "free" else 6,
            ops_per_writer=args.ops if mode == "free" else 8,
            deterministic=(mode == "sched"),
        )
        result = run_stress(config)
        report = {"mode": f"replay-{mode}", "runs": [_result_dict(result)]}
        ok = result.ok
        print(
            f"[stress] replay {result.handle}: "
            f"{'OK' if ok else 'FAIL'} — {result.queries_checked} queries checked, "
            f"{result.sched_decisions} scheduler decisions"
        )
    elif args.sched_seeds > 0:
        outcomes = sweep_interleavings(list(range(args.sched_seeds)))
        ok = all(o["ok"] for o in outcomes)
        report = {"mode": "sched-sweep", "runs": outcomes}
        for outcome in outcomes:
            print(
                f"[stress] {outcome['handle']}: "
                f"{'OK' if outcome['ok'] else 'FAIL'} — "
                f"{outcome['decisions']} decisions, "
                f"deterministic={outcome['deterministic_replay']}"
            )
        if not ok:
            bad = [o["handle"] for o in outcomes if not o["ok"]]
            print(f"[stress] FAILING HANDLES: {', '.join(bad)} (replay with --replay)")
    else:
        config = StressConfig(
            seed=args.seed,
            clients=args.clients,
            writers=args.writers,
            queries_per_client=args.queries,
            ops_per_writer=args.ops,
        )
        result = run_stress(config)
        ok = result.ok
        report = {"mode": "free", "runs": [_result_dict(result)]}
        print(
            f"[stress] {result.handle}: {'OK' if ok else 'FAIL'} — "
            f"{result.queries_checked} queries checked, "
            f"{result.changes_applied} changes replayed, "
            f"bypasses={result.pmv_bypassed_lock}, "
            f"writer_aborts={result.writer_lock_aborts}, "
            f"aborted_statements={result.aborted_statements}, "
            f"lock_stats={result.lock_stats}"
        )
        if not ok:
            for mismatch in result.mismatches[:10]:
                print(f"[stress]   mismatch: {mismatch}")
            for error in result.thread_errors[:10]:
                print(f"[stress]   thread error: {error['thread']}: {error['error']}")

    if args.report:
        with open(args.report, "w") as handle:
            json.dump(report, handle, indent=2, default=str)
        print(f"[stress] report written to {args.report}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
