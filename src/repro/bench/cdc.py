"""CDC drill: async maintenance converges, and its staleness is honest.

Three phases:

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
  (the stamp is a *true* upper bound, checked by replay, not trusted);
- **crash sweep** — a bounded torture sweep over the ``outbox.*``
  fault sites (crash before/after the feed append, error and crash
  mid-drain) reusing the CDC torture harness.

Run it::

    python -m repro.bench.cdc --report CDC_report.json
    python -m repro.bench cdc
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import asdict, dataclass, field

from repro.bench.torture import sweep as torture_sweep
from repro.check import (
    Answer,
    Replay,
    attach_view,
    bind,
    build_rs,
    check_answers,
    multiset,
    rs_template,
)
from repro.engine import Database, WriteAheadLog
from repro.workload import ZipfianDistribution

__all__ = ["CdcBenchConfig", "CdcReport", "run_cdc", "main"]

N_F = 6
N_G = 4
N_C = 8


@dataclass(frozen=True)
class CdcBenchConfig:
    seed: int = 7
    rows_r: int = 320
    rows_s: int = 240
    """High join fanout (``rows_s / N_C`` s-matches per r row) makes
    eager delta maintenance expensive; the async write path never
    touches it."""
    writes: int = 500
    """Write ops per world in the convergence phase."""
    alpha: float = 1.07
    """Zipf skew over the r.f key space (the paper's hot setting)."""
    replay_ops: int = 90
    """Ops in the stamp-replay honesty phase."""
    sweep_ops: int = 60
    sweep_max_points: int = 24


@dataclass
class CdcReport:
    """Serialized by ``--report`` — the CI acceptance artifact."""

    seed: int = 0
    deltas_applied: int = 0
    eager_skips: int = 0
    converged_answers_equal: bool = False
    stamps_verified: int = 0
    stamp_failures: list[str] = field(default_factory=list)
    max_staleness_seen: int = 0
    bypassed_stale: int = 0
    sweep_points: int = 0
    sweep_ok: bool = False
    sweep_divergences: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.converged_answers_equal
            and not self.stamp_failures
            and self.sweep_ok
        )


# ---------------------------------------------------------------------------
# World construction
# ---------------------------------------------------------------------------


def _build_world(config: CdcBenchConfig, async_mode: bool, database=None):
    db = build_rs(
        database or Database(), config.rows_r, config.rows_s, domains=(N_C, N_F, N_G)
    )
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
    maintainer = None
    if async_mode:
        maintainer = manager.enable_async_maintenance()
    return db, manager, template, executor, maintainer


def _make_ops(config: CdcBenchConfig, count: int, base_id: int):
    """A deterministic (kind, x, y) op list, Zipf-skewed over r.f.

    ``x`` picks the victim row by rank among live ids (delete/update)
    or the join key (insert); ``y`` is the new Zipf-drawn f value.
    Both worlds replay the list through :func:`_apply_op`, which
    resolves victims by sorted id, so their heaps evolve identically.
    """
    zipf = ZipfianDistribution(N_F, config.alpha, seed=config.seed)
    fs = zipf.sample(count)
    rng = random.Random(config.seed)
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


# ---------------------------------------------------------------------------
# Phase 1: convergence
# ---------------------------------------------------------------------------


def _check_convergence(config: CdcBenchConfig, report: CdcReport, verbose: bool):
    ops = _make_ops(config, config.writes, base_id=1_000_000)
    e_db, e_manager, e_template, e_executor, _ = _build_world(config, async_mode=False)
    a_db, a_manager, a_template, a_executor, maintainer = _build_world(
        config, async_mode=True
    )
    for op, x, y in ops:
        _apply_op(e_db, op, x, y)
        _apply_op(a_db, op, x, y)
    maintainer.drain_to_convergence()
    stats = maintainer.stats()
    report.deltas_applied = stats["deltas_applied"]
    report.eager_skips = stats["eager_skips"]

    # Post-drain the worlds must agree exactly, cell by cell.
    equal = True
    for f in range(N_F):
        for g in range(N_G):
            a_result, a_counts = _answer(a_executor, a_template, f, g)
            _, e_counts = _answer(e_executor, e_template, f, g)
            if a_counts != e_counts or a_result.staleness != 0:
                equal = False
    report.converged_answers_equal = equal
    a_manager.verify_consistency()
    e_manager.verify_consistency()

    if verbose:
        print(
            f"  converged: {report.deltas_applied} deltas drained, "
            f"answers equal: {report.converged_answers_equal}"
        )


# ---------------------------------------------------------------------------
# Phase 2: stamp replay
# ---------------------------------------------------------------------------


def _stamp_replay(config: CdcBenchConfig, report: CdcReport, verbose: bool):
    """Interleave writes, partial drains, and queries; verify every
    stamp by replaying the recorded history."""
    db, manager, template, executor, maintainer = _build_world(
        config, async_mode=True, database=Database(wal=WriteAheadLog())
    )
    executor.freshness_bound = 25
    rng = random.Random(config.seed + 1)
    zipf = ZipfianDistribution(N_F, config.alpha, seed=config.seed + 1)
    answers: list[Answer] = []
    next_id = 2_000_000
    for _ in range(config.replay_ops):
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
            if result.metrics.bypassed_stale:
                report.bypassed_stale += 1
            if stamp != now - result.applied_lsn:
                report.stamp_failures.append(
                    f"stamp {stamp} != lsn delta {now - result.applied_lsn}"
                )
                continue
            report.max_staleness_seen = max(report.max_staleness_seen, stamp)
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
    report.stamp_failures.extend(
        str(violation)
        for violation in check_answers(answers, Replay(db.wal.records()))
    )
    report.stamps_verified = len(answers)
    maintainer.drain_to_convergence()
    manager.verify_consistency()
    if verbose:
        print(
            f"  stamps: {report.stamps_verified} verified by replay, "
            f"{len(report.stamp_failures)} failures, "
            f"max staleness {report.max_staleness_seen}, "
            f"{report.bypassed_stale} bypassed"
        )


# ---------------------------------------------------------------------------
# Phase 3: crash sweep
# ---------------------------------------------------------------------------


def _crash_sweep(config: CdcBenchConfig, report: CdcReport, verbose: bool):
    sweep_report = torture_sweep(
        [config.seed],
        ops=config.sweep_ops,
        max_points=config.sweep_max_points,
        cdc=True,
        sites=["outbox."],
        verbose=False,
    )
    report.sweep_points = sweep_report.points_run
    report.sweep_ok = sweep_report.ok
    report.sweep_divergences = sweep_report.divergences
    if verbose:
        print(
            f"  sweep:  {sweep_report.points_run} outbox.* crash points, "
            f"{'ALL HELD' if sweep_report.ok else 'DIVERGENCE'}"
        )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_cdc(
    config: CdcBenchConfig | None = None, verbose: bool = True
) -> CdcReport:
    config = config or CdcBenchConfig()
    report = CdcReport(seed=config.seed)
    if verbose:
        print(
            f"[cdc] {config.writes} Zipf(α={config.alpha}) writes, "
            f"{config.rows_r}x{config.rows_s} rows, seed {config.seed}"
        )
    _check_convergence(config, report, verbose)
    _stamp_replay(config, report, verbose)
    _crash_sweep(config, report, verbose)
    if verbose:
        print(f"[cdc] {'PASS' if report.ok else 'FAIL'}")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.cdc",
        description="Async-maintenance convergence + staleness honesty drill.",
    )
    parser.add_argument("--seed", type=int, default=CdcBenchConfig.seed)
    parser.add_argument("--writes", type=int, default=CdcBenchConfig.writes)
    parser.add_argument(
        "--report", metavar="PATH", default=None, help="write a JSON report here"
    )
    args = parser.parse_args(argv)
    config = CdcBenchConfig(seed=args.seed, writes=args.writes)
    report = run_cdc(config)
    if args.report:
        payload = asdict(report)
        payload["ok"] = report.ok
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"report written to {args.report}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
