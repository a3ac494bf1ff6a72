"""CDC drill: async maintenance converges, and its staleness is honest.

The fault-free run (schedule ``none``) has two phases:

- **convergence** — two identical worlds run the same deterministic
  Zipf-skewed, write-heavy DML stream against a warmed PMV: the *eager*
  world maintains the view inside every writing statement (X lock,
  delta join, aux updates), the *async* world routes every relevant
  change through the transactional outbox and applies nothing on the
  write path.  After the drain both worlds must answer every cell
  identically.  What the deferral buys in writes per second is the perf
  harness's ``write_cdc_inproc`` vs ``cold_inproc`` ``write_wps``;
- **stamp replay** — an interleaved write/drain/query phase on a
  WAL-logged async world records every answer with its stamped LSN
  window, then replays the log (:mod:`repro.check.oracle`): the truth
  at the answer's LSN must be contained in it, and every tuple served
  must have been true at some LSN within the stamped staleness window
  (the stamp is a *true* upper bound, checked by replay, not trusted).

Every other point is one crash of the ``torture-cdc`` workload at an
``outbox.*`` fault site (crash before/after the feed append, error and
crash mid-drain), :data:`SWEEP_POINTS` of them by even stride.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.bench.torture import enumerate_points, run_point
from repro.check import (
    Answer,
    Drill,
    Outcome,
    Replay,
    attach_view,
    bind,
    build_rs,
    check_answers,
    handle,
    multiset,
    rs_template,
    sample,
)
from repro.engine import Database, WriteAheadLog
from repro.faults import FaultSpec
from repro.workload import ZipfianDistribution

__all__ = ["DRILL", "run"]

N_F = 6
N_G = 4
N_C = 8
ROWS_R = 320
ROWS_S = 240
"""High join fanout (``ROWS_S / N_C`` s-matches per r row) makes eager
delta maintenance expensive; the async write path never touches it."""
WRITES = 500
"""Write ops per world in the convergence phase."""
ALPHA = 1.07
"""Zipf skew over the r.f key space (the paper's hot setting)."""
REPLAY_OPS = 90
"""Ops in the stamp-replay honesty phase."""
SWEEP_POINTS = 24


def _build_world(async_mode: bool, database=None):
    db = build_rs(database or Database(), ROWS_R, ROWS_S, domains=(N_C, N_F, N_G))
    template = rs_template("cq")
    manager = attach_view(
        db,
        template,
        tuples_per_entry=4,
        max_entries=N_F * N_G,
        upper_bound_bytes=1 << 16,
    )
    executor = manager.executor(template.name)
    # Warm every (f, g) cell so the writes all hit resident entries:
    # every relevant change has maintenance work to defer.
    for f in range(N_F):
        for g in range(N_G):
            executor.execute(bind(template, f, g))
    maintainer = manager.enable_async_maintenance() if async_mode else None
    return db, manager, template, executor, maintainer


def _make_ops(seed: int, count: int, base_id: int):
    """A deterministic (kind, x, y) op list, Zipf-skewed over r.f.

    ``x`` picks the victim row by rank among live ids (delete/update)
    or the join key (insert); ``y`` is the new Zipf-drawn f value.
    Both worlds replay the list through :func:`_apply_op`, which
    resolves victims by sorted id, so their heaps evolve identically.
    """
    fs = ZipfianDistribution(N_F, ALPHA, seed=seed).sample(count)
    rng = random.Random(seed)
    ops = []
    next_id = base_id
    for k in range(count):
        roll = rng.random()
        if roll < 0.2:
            ops.append(("insert", next_id, int(fs[k])))
            next_id += 1
        elif roll < 0.6:
            ops.append(("update", rng.randrange(1 << 20), int(fs[k])))
        else:
            ops.append(("delete", rng.randrange(1 << 20), 0))
    return ops


def _apply_op(db, op, x, y):
    if op == "insert":
        db.insert("r", (x, x % N_C, y, f"w{x}"))
        return
    live = sorted(db.catalog.relation("r").scan(), key=lambda pair: pair[1]["id"])
    if not live:
        return
    row_id, _ = live[x % len(live)]
    if op == "delete":
        db.delete("r", row_id)
    else:
        db.update("r", row_id, f=y)


def _answer(executor, template, f, g):
    result = executor.execute(bind(template, f, g))
    return result, multiset(result.all_rows())


def _check_convergence(seed: int, outcome: Outcome) -> None:
    e_db, e_manager, e_template, e_executor, _ = _build_world(async_mode=False)
    a_db, a_manager, a_template, a_executor, maintainer = _build_world(async_mode=True)
    for op, x, y in _make_ops(seed, WRITES, base_id=1_000_000):
        _apply_op(e_db, op, x, y)
        _apply_op(a_db, op, x, y)
    maintainer.drain_to_convergence()
    stats = maintainer.stats()
    outcome.counts["deltas_applied"] = stats["deltas_applied"]
    outcome.counts["eager_skips"] = stats["eager_skips"]

    # Post-drain the worlds must agree exactly, cell by cell.
    for f in range(N_F):
        for g in range(N_G):
            a_result, a_counts = _answer(a_executor, a_template, f, g)
            _, e_counts = _answer(e_executor, e_template, f, g)
            if a_counts != e_counts or a_result.staleness != 0:
                outcome.violations.append(
                    f"converged async answer at f={f} g={g} differs from the "
                    f"eager twin (staleness {a_result.staleness})"
                )
    a_manager.verify_consistency()
    e_manager.verify_consistency()


def _stamp_replay(seed: int, outcome: Outcome) -> None:
    """Interleave writes, partial drains, and queries; verify every
    stamp by replaying the recorded history."""
    db, manager, template, executor, maintainer = _build_world(
        async_mode=True, database=Database(wal=WriteAheadLog())
    )
    executor.freshness_bound = 25
    rng = random.Random(seed + 1)
    zipf = ZipfianDistribution(N_F, ALPHA, seed=seed + 1)
    answers: list[Answer] = []
    counts = {"stamps_verified": 0, "max_staleness_seen": 0, "bypassed_stale": 0}
    next_id = 2_000_000
    for _ in range(REPLAY_OPS):
        roll = rng.random()
        if roll < 0.55:
            kind = rng.choice(("insert", "update", "delete"))
            if kind == "insert":
                _apply_op(db, "insert", next_id, zipf.sample_one())
                next_id += 1
            else:
                _apply_op(db, kind, rng.randrange(1 << 20), zipf.sample_one())
        elif roll < 0.75:
            maintainer.drain(max_records=rng.randrange(1, 6))
        else:
            f, g = zipf.sample_one(), rng.randrange(N_G)
            result, got = _answer(executor, template, f, g)
            now = db.current_lsn()
            stamp = result.staleness
            counts["bypassed_stale"] += bool(result.metrics.bypassed_stale)
            if stamp != now - result.applied_lsn:
                outcome.violations.append(
                    f"stamp {stamp} != lsn delta {now - result.applied_lsn}"
                )
                continue
            counts["max_staleness_seen"] = max(counts["max_staleness_seen"], stamp)
            answers.append(
                Answer(
                    f"f={f} g={g} (stamp {stamp})",
                    result.query,
                    got,
                    result.complete,
                    now,
                    low=result.applied_lsn,
                )
            )
    outcome.violations.extend(
        map(str, check_answers(answers, Replay(db.wal.records())))
    )
    counts["stamps_verified"] = len(answers)
    outcome.counts.update(counts)
    maintainer.drain_to_convergence()
    manager.verify_consistency()


def run(seed: int, schedule: str) -> Outcome:
    if schedule != "none":
        crash = run_point(seed, FaultSpec.parse(schedule), cdc=True)
        return replace(crash, handle=handle("cdc", seed, schedule))
    outcome = Outcome(handle("cdc", seed, schedule), [])
    _check_convergence(seed, outcome)
    _stamp_replay(seed, outcome)
    return outcome


def _points(seed: int) -> list[str]:
    specs = [s for s in enumerate_points(seed, cdc=True) if s.site.startswith("outbox.")]
    return ["none", *sample([spec.describe() for spec in specs], SWEEP_POINTS)]


DRILL = Drill("cdc", points=_points, run=run, seeds=(7,))
