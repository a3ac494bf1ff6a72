"""Crash-recovery torture harness.

Drives the fault-injection subsystem (:mod:`repro.faults`) through a
seeded mixed insert/delete/update/query/checkpoint workload, crashing
the simulated process at *every* fault point the workload reaches, and
after each crash checks the full recovery invariant set:

- the on-disk WAL parses (a torn tail is tolerated, reported, and
  repaired away);
- replaying it yields exactly the acknowledged pre-crash state, except
  possibly the single in-flight statement — applied entirely or not at
  all (atomic, durable statements);
- heap and indexes agree (no dangling or missing index entries);
- snapshot-based recovery (latest checkpoint + log suffix) agrees with
  full-log recovery;
- a PMV restarted on the recovered database serves no phantom tuples
  (probe every bcp, compare against full execution).

Recoverable injected faults (ERROR mode) instead let the workload keep
running and assert the engine aborted the statement cleanly — e.g. a
failure inside PMV maintenance must leave the view with zero stale
entries (the fail-safe clear).

Every point is replayable: a divergence prints ``seed`` and
``site:occurrence:mode``; rerun it with::

    python -m repro.bench.torture --replay SEED/site:occurrence:mode

Run a bounded sweep (the CI ``torture`` job)::

    python -m repro.bench.torture --seeds 2 --max-points 200 \\
        --report TORTURE_report.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field

from repro.check import (
    RELATIONS,
    attach_view,
    build_rs,
    multiset,
    random_binding,
    rs_template,
    strategy_for_seed,
)
from repro.engine import Database, WriteAheadLog, recover
from repro.engine.snapshot import (
    recover_from_snapshot,
    snapshot_from_json,
    snapshot_to_json,
    take_snapshot,
)
from repro.errors import DiskFullError, FaultInjectionError, ReproError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    SimulatedCrash,
    build_faulty_database,
    contents_of,
    modes_for_site,
    verify_crash_recovery,
    verify_database,
)
from repro.faults.check import InvariantViolation

__all__ = [
    "TortureConfig",
    "PointResult",
    "SweepReport",
    "enumerate_points",
    "run_point",
    "sweep",
    "main",
]

#: Small pages + a tiny buffer pool so heap data spans several pages
#: and evictions happen mid-workload — otherwise the disk fault sites
#: would only fire during checkpoints.
DEFAULT_PAGE_SIZE = 256
DEFAULT_POOL_PAGES = 6
DEFAULT_OPS = 60

#: The sweep's WAL segment budget: about five records, so every seeded
#: workload rotates several times, the append crash windows (TORN /
#: CRASH_AFTER) also land on the first record of a fresh segment, and
#: every recovery reads back across segment boundaries.
WAL_SEGMENT_BYTES = 512


@dataclass(frozen=True)
class TortureConfig:
    """One seeded torture run's shape."""

    seed: int = 0
    ops: int = DEFAULT_OPS
    page_size: int = DEFAULT_PAGE_SIZE
    buffer_pool_pages: int = DEFAULT_POOL_PAGES
    cdc: bool = False
    """Run the PMV under CDC-driven async maintenance: DML feeds the
    transactional outbox (with its two crash windows armed), a
    heavy-light splitter keeps part of the key space eager, and the
    workload interleaves background drains — including crashes mid-
    drain.  Query answers are checked under bounded-stale semantics
    and the run must end convergent (DESIGN.md §13)."""


@dataclass
class PointResult:
    """Outcome of one fault point (or of a fault-free run)."""

    seed: int
    spec: str | None  # "site:occurrence:mode", None = fault-free
    ok: bool
    status: str  # completed | crashed | condemned | divergence
    stage: str  # where the run ended / where checking failed
    ops_acked: int
    error: str | None = None

    @property
    def replay(self) -> str:
        return f"{self.seed}/{self.spec or 'none'}"


@dataclass
class SweepReport:
    """Aggregated sweep outcome (serialized as the CI artifact)."""

    points_run: int = 0
    crashes: int = 0
    condemned: int = 0
    completed: int = 0
    divergences: list[dict] = field(default_factory=list)
    seeds: list[int] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.divergences


# ---------------------------------------------------------------------------
# Workload
# ---------------------------------------------------------------------------


def _setup(config: TortureConfig, injector: FaultInjector, wal_path: str):
    """Build the database, schema, seed data, and PMV.

    Setup runs fault-free (the injector is armed by the caller
    afterwards): the sweep explores faults in the steady-state
    workload, not in bootstrap DDL, and counting occurrences from the
    first workload op keeps fault specs stable across phases.
    """
    database = build_faulty_database(
        injector,
        wal_path,
        buffer_pool_pages=config.buffer_pool_pages,
        page_size=config.page_size,
        segment_bytes=WAL_SEGMENT_BYTES,
    )
    build_rs(database, 24, 12)
    template = rs_template("tq")
    manager = attach_view(
        database, template, strategy_for_seed(config.seed), upper_bound_bytes=4096
    )
    maintainer = None
    if config.cdc:
        from repro.cdc import ChangeOutbox, HeavyLightSplitter

        # The feed starts empty here — seed inserts above predate it,
        # matching a view registered against a running database.  The
        # splitter keeps part of the r.f key space eager so the sweep
        # crosses both the hot (write-path) and cold (drain) routes.
        maintainer = manager.enable_async_maintenance(
            outbox=ChangeOutbox(fault_check=injector.check),
            splitter=HeavyLightSplitter({"r.f": {0, 1}}),
        )
        manager.executor(template.name).freshness_bound = 6
        # Hook the drain-vs-commit interleaving site: every few commits
        # a probe thread runs the feed-end catch-up while the writer is
        # parked between WAL append and outbox append.
        database.scheduler = _DrainCommitProbe(database, maintainer)
    return database, manager, template, maintainer


class _DrainCommitProbe:
    """Exercises the drain-vs-commit window at the ``dml.outbox-append``
    seam (DESIGN.md §13).

    Installed as ``database.scheduler`` so the DML path calls
    :meth:`switch` inside the statement latch, after the WAL append but
    before the outbox append — the WAL LSN is ahead of the feed.  A
    probe thread then runs the drain's feed-end catch-up
    (``drain(max_records=0)`` skips the apply loop, which would block
    on the held latch) and the probe asserts no registered view's
    watermark reached the in-flight LSN: claiming it would be phantom
    freshness, the exact race the non-blocking-latch fix closes.
    Non-seam sites are ignored, so lock traffic is unaffected.
    """

    def __init__(self, database, maintainer, every: int = 5) -> None:
        self.database = database
        self.maintainer = maintainer
        self.every = every
        self.calls = 0
        self.probes = 0

    def switch(self, site: str) -> None:
        if site != "dml.outbox-append":
            return
        self.calls += 1
        if self.calls % self.every:
            return
        self.probes += 1
        in_flight = self.database.wal.last_lsn
        watermarks: dict[str, int] = {}

        def attempt() -> None:
            self.maintainer.drain(max_records=0)
            for name, m in self.maintainer._registered.items():
                watermarks[name] = m.view.applied_lsn

        probe = threading.Thread(target=attempt, daemon=True)
        probe.start()
        probe.join(timeout=10.0)
        if probe.is_alive():
            raise InvariantViolation(
                "drain-vs-commit probe wedged: the feed-end catch-up "
                "blocked on the statement latch held by the committing "
                "writer"
            )
        for name, applied in watermarks.items():
            if applied >= in_flight:
                raise InvariantViolation(
                    f"phantom freshness: view {name!r} watermark {applied} "
                    f"reached in-flight LSN {in_flight} before its feed "
                    f"record was appended"
                )

    # Scheduler protocol stubs — the DML seam only calls switch(), but
    # keep the interface total in case other seams are ever routed here.
    def block(self, site: str) -> None:  # pragma: no cover
        pass

    def resume(self) -> None:  # pragma: no cover
        pass

    def unblock(self, ident: int) -> None:  # pragma: no cover
        pass


def _shadow_contents(shadow: dict[str, dict[tuple, int]]) -> dict[str, list[tuple]]:
    out = {}
    for name, counts in shadow.items():
        values = []
        for item, count in counts.items():
            values.extend([item] * count)
        out[name] = sorted(values, key=repr)
    return out


def _apply_effect(shadow, effect) -> None:
    for action, relation, values in effect:
        counts = shadow[relation]
        if action == "add":
            counts[values] = counts.get(values, 0) + 1
        else:
            counts[values] = counts.get(values, 0) - 1
            if counts[values] <= 0:
                del counts[values]


def _check_bounded_stale(result, got, want) -> None:
    """The async-mode query oracle (truth ⊆ answer, stamp honest)."""
    lost = want - got
    if lost:
        item = min(lost, key=repr)
        raise InvariantViolation(
            f"async answer lost a current tuple: {item!r} x{want[item]} in "
            f"truth, x{got[item]} served"
        )
    if result.staleness == 0 and got != want:
        raise InvariantViolation(
            "answer stamped staleness=0 but differs from full execution "
            "— the freshness stamp lies"
        )


def _pick_row(rng: random.Random, database: Database, relation: str):
    rows = list(database.catalog.relation(relation).scan())
    if not rows:
        return None
    return rows[rng.randrange(len(rows))]


class _Crash(Exception):
    """Internal control flow: carries the crash context upward."""

    def __init__(self, spec_text: str, expected, expected_plus):
        super().__init__(spec_text)
        self.spec_text = spec_text
        self.expected = expected
        self.expected_plus = expected_plus


def _run_workload(config, database, manager, template, shadow, snapshots,
                  maintainer=None):
    """Execute the seeded op mix; raise :class:`_Crash` on simulated
    death, return the acked-op count on completion."""
    rng = random.Random(config.seed * 7919 + 17)
    next_r_id = 1000
    acked = 0
    for op_no in range(config.ops):
        roll = rng.random()
        effect: list = []
        lsn_before = database.wal.last_lsn
        try:
            if maintainer is not None and op_no % 3 == 2:
                # Interleaved background drain: applies pending feed
                # deltas (hitting the ``outbox.drain`` fault site), no
                # base-data effect — a mid-drain crash must recover to
                # the same acked state as any other.
                maintainer.drain(max_records=8)
            if roll < 0.28:  # insert
                if rng.random() < 0.7:
                    values = (next_r_id, rng.randrange(6), rng.randrange(4), f"a{next_r_id}")
                    next_r_id += 1
                    effect = [("add", "r", values)]
                    database.insert("r", values)
                else:
                    values = (rng.randrange(6), rng.randrange(3), f"e{rng.randrange(99)}")
                    effect = [("add", "s", values)]
                    database.insert("s", values)
            elif roll < 0.43:  # delete
                relation = "r" if rng.random() < 0.6 else "s"
                victim = _pick_row(rng, database, relation)
                if victim is not None:
                    row_id, row = victim
                    effect = [("remove", relation, tuple(row.values))]
                    database.delete(relation, row_id)
            elif roll < 0.62:  # update
                relation = "r" if rng.random() < 0.6 else "s"
                victim = _pick_row(rng, database, relation)
                if victim is not None:
                    row_id, row = victim
                    if relation == "r":
                        column = rng.choice(["a", "c", "f", "id"])
                        value = (
                            f"renamed-{rng.randrange(999)}"
                            if column == "a"
                            else rng.randrange(9000 if column == "id" else 6)
                        )
                    else:
                        column = rng.choice(["e", "g"])
                        value = (
                            f"relab-{rng.randrange(999)}"
                            if column == "e"
                            else rng.randrange(3)
                        )
                    new_row = row.replace(**{column: value})
                    effect = [
                        ("remove", relation, tuple(row.values)),
                        ("add", relation, tuple(new_row.values)),
                    ]
                    database.update(relation, row_id, **{column: value})
            elif roll < 0.90:  # query (and live staleness check)
                query = random_binding(template, rng)
                result = manager.execute(query)
                got = multiset(result.all_rows())
                want = multiset(database.run(query))
                if maintainer is None:
                    if got != want:
                        raise InvariantViolation(
                            f"query through PMV returned {sum(got.values())} tuples, "
                            f"full execution {sum(want.values())} — stale partial results"
                        )
                else:
                    # Bounded-stale semantics: the answer is the current
                    # truth plus possibly extras that were true at some
                    # LSN >= the view's watermark.  Losing a *current*
                    # tuple is never allowed, and a zero staleness
                    # stamp must mean an exact answer.
                    _check_bounded_stale(result, got, want)
            else:  # checkpoint: WAL marker + snapshot
                database.wal.checkpoint()
                snapshots.append(snapshot_to_json(take_snapshot(database)))
        except SimulatedCrash as crash:
            expected = _shadow_contents(shadow)
            plus = None
            if effect:
                shadow_plus = {name: dict(counts) for name, counts in shadow.items()}
                _apply_effect(shadow_plus, effect)
                plus = _shadow_contents(shadow_plus)
            raise _Crash(crash.spec.describe(), expected, plus) from None
        except DiskFullError:
            # Typed ENOSPC refusal (disk.full / wal.enospc): the
            # statement was refused *before* any heap or WAL mutation,
            # so it must have had zero durable effect, and the
            # instance degrades to read-only — queries keep serving.
            if database.wal.last_lsn != lsn_before:
                raise InvariantViolation(
                    "disk-full refusal left a durable effect: WAL "
                    f"advanced {lsn_before} -> {database.wal.last_lsn}"
                )
            probe = random_binding(template, rng)
            result = manager.execute(probe)
            got = multiset(result.all_rows())
            want = multiset(database.run(probe))
            if maintainer is None:
                if got != want:
                    raise InvariantViolation(
                        "read-only degradation broke reads: PMV answer "
                        "diverged from full execution during disk-full"
                    )
            else:
                _check_bounded_stale(result, got, want)
            continue
        except FaultInjectionError as exc:
            durable = database.wal.last_lsn > lsn_before
            if durable and effect:
                _apply_effect(shadow, effect)
            if exc.site.startswith("disk."):
                # An I/O error on the data volume condemns the
                # instance (fsync-failure semantics): stop and recover.
                expected = _shadow_contents(shadow)
                raise _Crash(
                    f"{exc.site}:{exc.occurrence}:error", expected, None
                ) from None
            # Recoverable injected failure: the statement aborted
            # cleanly; the workload carries on.
            continue
        if effect:
            _apply_effect(shadow, effect)
        acked += 1
    return acked


# ---------------------------------------------------------------------------
# Recovery checking
# ---------------------------------------------------------------------------


def _recovered_factory(config: TortureConfig):
    return lambda: Database(
        buffer_pool_pages=config.buffer_pool_pages, page_size=config.page_size
    )


def _check_recovery(config, wal_path, expected, expected_plus, snapshots) -> None:
    """The post-crash invariant battery."""
    log = WriteAheadLog.load(wal_path)
    if log.has_torn_tail:
        removed = log.repair()
        if removed <= 0:
            raise InvariantViolation("torn tail reported but repair removed 0 bytes")
        reread = WriteAheadLog.load(wal_path)
        if reread.has_torn_tail or len(reread) != len(log):
            raise InvariantViolation("repaired WAL still torn or lost records")
    recovered = recover(log, database_factory=_recovered_factory(config))
    verify_crash_recovery(recovered, expected, expected_plus)
    if snapshots:
        from_snapshot = recover_from_snapshot(
            snapshot_from_json(snapshots[-1]),
            log,
            buffer_pool_pages=config.buffer_pool_pages,
            page_size=config.page_size,
        )
        if contents_of(from_snapshot, RELATIONS) != contents_of(
            recovered, RELATIONS
        ):
            raise InvariantViolation(
                "snapshot-based recovery disagrees with full-log recovery"
            )
    _check_pmv_restart(config, recovered)


def _check_pmv_restart(config: TortureConfig, recovered: Database) -> None:
    """A PMV restarted empty on the recovered database must warm up
    and serve exactly what full execution serves.

    In CDC mode the restarted view runs async again: the pre-crash
    feed died with the process (views restart empty, so there is
    nothing to replay) and a *fresh* feed starts at zero staleness.
    New writes must then flow outbox → drain → convergence, after
    which the strict consistency check still holds.
    """
    template = rs_template("tq")
    manager = attach_view(recovered, template)
    maintainer = None
    if config.cdc:
        from repro.cdc import ChangeOutbox

        maintainer = manager.enable_async_maintenance(outbox=ChangeOutbox())
    rng = random.Random(config.seed + 1)
    for _ in range(3):
        query = random_binding(template, rng)
        result = manager.execute(query)
        if multiset(result.all_rows()) != multiset(recovered.run(query)):
            raise InvariantViolation(
                "restarted PMV disagrees with full execution on the "
                "recovered database"
            )
    if maintainer is not None:
        rows = list(recovered.catalog.relation("r").scan())
        if rows:
            row_id, _ = rows[0]
            recovered.delete("r", row_id)
        maintainer.drain_to_convergence()
        query = random_binding(template, rng)
        result = manager.execute(query)
        exact = multiset(result.all_rows()) == multiset(recovered.run(query))
        if not exact or (result.staleness or 0) != 0:
            raise InvariantViolation(
                "restarted async PMV did not converge after the post-"
                "recovery write was drained"
            )
    manager.verify_consistency()


def _check_completed(config, database, manager, wal_path, shadow,
                     maintainer=None) -> None:
    """Invariants after a run that finished (fault-free, or with only
    recoverable injected errors along the way)."""
    if maintainer is not None:
        # Drain the feed dry, then demand full convergence: watermarks
        # at the current LSN and the strict (phantom-sensitive)
        # consistency check — a lost or double-applied delta surfaces
        # here as a phantom tuple or a MaintenanceError.
        maintainer.drain_to_convergence()
        if len(database.outbox) != 0:
            raise InvariantViolation("feed not empty after convergence drain")
        view = manager.view("tq")
        if view.applied_lsn < database.current_lsn():
            raise InvariantViolation(
                f"watermark {view.applied_lsn} trails LSN "
                f"{database.current_lsn()} after a convergence drain"
            )
    live = contents_of(database, RELATIONS)
    if live != _shadow_contents(shadow):
        raise InvariantViolation("live contents diverged from the op-level shadow")
    verify_database(database)
    manager.verify_consistency()
    database.wal.close()
    log = WriteAheadLog.load(wal_path)
    if log.has_torn_tail:
        raise InvariantViolation("WAL has a torn tail without any crash")
    recovered = recover(log, database_factory=_recovered_factory(config))
    verify_database(recovered)
    if contents_of(recovered, RELATIONS) != live:
        raise InvariantViolation(
            "recovering the WAL of a live database does not reproduce it"
        )


# ---------------------------------------------------------------------------
# Points: enumerate, run one, sweep
# ---------------------------------------------------------------------------


def _run(config: TortureConfig, plan: FaultPlan | None) -> PointResult:
    spec_text = plan.describe() if plan and len(plan) else None
    with tempfile.TemporaryDirectory(prefix="torture-") as workdir:
        wal_path = os.path.join(workdir, "wal")
        injector = FaultInjector(FaultPlan.none())
        database, manager, template, maintainer = _setup(config, injector, wal_path)
        # Arm the plan only now: occurrences count workload arrivals.
        injector.plan = plan if plan is not None else FaultPlan.none()
        injector.counts.clear()
        shadow: dict[str, dict[tuple, int]] = {name: {} for name in RELATIONS}
        for name in RELATIONS:
            for row in database.catalog.relation(name).scan_rows():
                values = tuple(row.values)
                shadow[name][values] = shadow[name].get(values, 0) + 1
        snapshots: list[str] = []
        stage = "workload"
        try:
            acked = _run_workload(
                config, database, manager, template, shadow, snapshots,
                maintainer=maintainer,
            )
            stage = "final-checks"
            _check_completed(config, database, manager, wal_path, shadow,
                             maintainer=maintainer)
            return PointResult(
                config.seed, spec_text, True, "completed", "done", acked,
            )
        except _Crash as crash:
            database.wal.close()
            stage = "recovery-checks"
            status = "condemned" if crash.spec_text.endswith(":error") else "crashed"
            try:
                _check_recovery(
                    config, wal_path, crash.expected, crash.expected_plus, snapshots
                )
            except ReproError as exc:
                return PointResult(
                    config.seed, spec_text, False, "divergence", stage,
                    -1, f"{type(exc).__name__}: {exc}",
                )
            return PointResult(config.seed, spec_text, True, status, "done", -1)
        except ReproError as exc:
            return PointResult(
                config.seed, spec_text, False, "divergence", stage,
                -1, f"{type(exc).__name__}: {exc}",
            )
        finally:
            injector.crashed = True  # silence any hooks during teardown
            database.wal.close()


def run_point(
    seed: int,
    spec: FaultSpec | None,
    ops: int = DEFAULT_OPS,
    cdc: bool = False,
) -> PointResult:
    """Run one seeded workload with (at most) one scheduled fault."""
    config = TortureConfig(seed=seed, ops=ops, cdc=cdc)
    plan = FaultPlan([spec]) if spec is not None else FaultPlan.none()
    return _run(config, plan)


def enumerate_points(
    seed: int, ops: int = DEFAULT_OPS, cdc: bool = False
) -> list[FaultSpec]:
    """All fault points one seeded workload reaches: run it fault-free,
    count arrivals per site, expand (site, occurrence) by the modes
    meaningful at each site."""
    config = TortureConfig(seed=seed, ops=ops, cdc=cdc)
    injector = FaultInjector(FaultPlan.none())
    with tempfile.TemporaryDirectory(prefix="torture-enum-") as workdir:
        wal_path = os.path.join(workdir, "wal")
        database, manager, template, maintainer = _setup(config, injector, wal_path)
        injector.counts.clear()
        shadow = {name: {} for name in RELATIONS}
        for name in RELATIONS:
            for row in database.catalog.relation(name).scan_rows():
                values = tuple(row.values)
                shadow[name][values] = shadow[name].get(values, 0) + 1
        _run_workload(config, database, manager, template, shadow, [],
                      maintainer=maintainer)
        database.wal.close()
    points = []
    for site in sorted(injector.counts):
        for occurrence in range(1, injector.counts[site] + 1):
            for mode in modes_for_site(site):
                points.append(FaultSpec(site, occurrence, mode))
    return points


def sweep(
    seeds: list[int],
    ops: int = DEFAULT_OPS,
    max_points: int | None = None,
    stop_on_first: bool = False,
    verbose: bool = False,
    cdc: bool = False,
    sites: list[str] | None = None,
) -> SweepReport:
    """Crash at every enumerated fault point of every seed.

    ``sites`` optionally restricts the sweep to fault sites matching
    any of the given prefixes (e.g. ``["outbox."]`` for the bench's
    bounded CDC sweep).
    """
    report = SweepReport(seeds=list(seeds))
    started = time.perf_counter()
    for seed in seeds:
        points = enumerate_points(seed, ops=ops, cdc=cdc)
        if sites:
            points = [
                p for p in points
                if any(p.site.startswith(prefix) for prefix in sites)
            ]
        budget = max_points - report.points_run if max_points else None
        if budget is not None and budget <= 0:
            break
        if budget is not None and len(points) > budget:
            # Even stride so the sample still spans every site/phase.
            stride = len(points) / budget
            points = [points[int(i * stride)] for i in range(budget)]
        for spec in points:
            result = run_point(seed, spec, ops=ops, cdc=cdc)
            report.points_run += 1
            report.crashes += result.status == "crashed"
            report.condemned += result.status == "condemned"
            report.completed += result.status == "completed"
            if not result.ok:
                report.divergences.append(asdict(result))
                print(
                    f"DIVERGENCE at {result.replay}: {result.error}",
                    file=sys.stderr,
                )
                if stop_on_first:
                    report.elapsed_seconds = time.perf_counter() - started
                    return report
            elif verbose:
                print(f"ok {result.replay} [{result.status}]")
    report.elapsed_seconds = time.perf_counter() - started
    return report


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.torture",
        description="Crash-at-every-fault-point recovery torture sweep.",
    )
    parser.add_argument("--seeds", type=int, default=2, help="number of workload seeds")
    parser.add_argument("--seed-base", type=int, default=0, help="first seed value")
    parser.add_argument("--ops", type=int, default=DEFAULT_OPS, help="ops per workload")
    parser.add_argument(
        "--max-points", type=int, default=None, help="bound the total points run"
    )
    parser.add_argument(
        "--report", metavar="PATH", default=None, help="write a JSON report here"
    )
    parser.add_argument(
        "--replay",
        metavar="SEED/SITE:OCC:MODE",
        default=None,
        help="re-run one printed divergence point and exit",
    )
    parser.add_argument(
        "--cdc",
        action="store_true",
        help="run the PMV under CDC-driven async maintenance (adds the "
        "outbox.append/outbox.drain fault sites and bounded-stale "
        "query checking)",
    )
    parser.add_argument(
        "--sites",
        metavar="PREFIX[,PREFIX...]",
        default=None,
        help="restrict the sweep to fault sites with these prefixes",
    )
    parser.add_argument("--stop-on-first", action="store_true")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    if args.replay is not None:
        seed_text, _, spec_text = args.replay.partition("/")
        spec = None if spec_text in ("", "none") else FaultSpec.parse(spec_text)
        result = run_point(int(seed_text), spec, ops=args.ops, cdc=args.cdc)
        print(json.dumps(asdict(result), indent=2))
        return 0 if result.ok else 1

    seeds = [args.seed_base + i for i in range(args.seeds)]
    report = sweep(
        seeds,
        ops=args.ops,
        max_points=args.max_points,
        stop_on_first=args.stop_on_first,
        verbose=args.verbose,
        cdc=args.cdc,
        sites=args.sites.split(",") if args.sites else None,
    )
    summary = asdict(report)
    summary["ok"] = report.ok
    print(
        f"torture: {report.points_run} fault points over seeds {report.seeds} "
        f"({report.crashes} crashes, {report.condemned} condemned, "
        f"{report.completed} completed) in {report.elapsed_seconds:.1f}s — "
        + ("ALL INVARIANTS HELD" if report.ok else
           f"{len(report.divergences)} DIVERGENCES")
    )
    for divergence in report.divergences:
        print(
            f"  replay: python -m repro.bench.torture "
            + ("--cdc " if args.cdc else "")
            + f"--replay {divergence['seed']}/{divergence['spec']}"
        )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)
        print(f"report written to {args.report}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
