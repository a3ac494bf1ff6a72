"""Crash-recovery torture drill.

Drives the fault-injection subsystem (:mod:`repro.faults`) through a
seeded mixed insert/delete/update/query/checkpoint workload, crashing
the simulated process at *every* fault point the workload reaches (one
point per run: the schedule is ``FaultSpec.describe()``, e.g.
``wal.append:17:torn``), and after each crash checks the full recovery
invariant set:

- the on-disk WAL parses (a torn tail is tolerated, reported, and
  repaired away);
- replaying it yields exactly the acknowledged pre-crash state, except
  possibly the single in-flight statement — applied entirely or not at
  all (atomic, durable statements);
- heap and indexes agree (no dangling or missing index entries);
- snapshot-based recovery (latest checkpoint + log suffix) agrees with
  full-log recovery;
- a PMV restarted on the recovered database serves no phantom tuples
  (every answer equals the reference model's, :mod:`repro.check.model`).

Recoverable injected faults (ERROR mode) instead let the workload keep
running and assert the engine aborted the statement cleanly — e.g. a
failure inside PMV maintenance must leave the view with zero stale
entries (the fail-safe clear).

Two drills: ``torture`` (eager maintenance) and ``torture-cdc`` (the PMV
under CDC-driven async maintenance: the drain reads its changes from
the WAL, a heavy-light splitter keeps part of the key space eager,
background drains interleave — including crashes mid-drain — answers
are checked under bounded-stale semantics and the run must end
convergent, DESIGN.md §13).
"""

from __future__ import annotations

import os
import random
import tempfile
import threading

from repro.check import (
    RELATIONS,
    Drill,
    InvariantViolation,
    Outcome,
    attach_view,
    build_rs,
    contents_of,
    handle,
    multiset,
    random_binding,
    rs_template,
    strategy_for_seed,
    true_answer,
    verify_crash_recovery,
    verify_database,
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
    modes_for_site,
)

__all__ = ["CDC_DRILL", "DRILL", "enumerate_points", "run_point"]

#: Small pages + a tiny buffer pool so heap data spans several pages
#: and evictions happen mid-workload — otherwise the disk fault sites
#: would only fire during checkpoints.
PAGE_SIZE = 256
POOL_PAGES = 6
OPS = 60

#: The WAL segment budget: about five records, so every seeded workload
#: rotates several times, the append crash windows (TORN / CRASH_AFTER)
#: also land on the first record of a fresh segment, and every recovery
#: reads back across segment boundaries.
WAL_SEGMENT_BYTES = 512


# ---------------------------------------------------------------------------
# Workload
# ---------------------------------------------------------------------------


def _setup(seed: int, cdc: bool, injector: FaultInjector, wal_path: str):
    """Build the database, schema, seed data, and PMV.

    Setup runs fault-free (the injector is armed by the caller
    afterwards): the sweep explores faults in the steady-state
    workload, not in bootstrap DDL, and counting occurrences from the
    first workload op keeps fault specs stable across phases.
    """
    database = build_faulty_database(
        injector,
        wal_path,
        buffer_pool_pages=POOL_PAGES,
        page_size=PAGE_SIZE,
        segment_bytes=WAL_SEGMENT_BYTES,
    )
    build_rs(database, 24, 12)
    template = rs_template("tq")
    manager = attach_view(
        database, template, strategy_for_seed(seed), upper_bound_bytes=4096
    )
    maintainer = None
    if cdc:
        from repro.cdc import HeavyLightSplitter

        # The cursor starts at the log's end here — seed inserts above
        # predate it, matching a view registered against a running
        # database.  The splitter keeps part of the r.f key space eager
        # so the sweep crosses both the hot (write-path) and cold
        # (drain) routes.
        maintainer = manager.enable_async_maintenance(
            splitter=HeavyLightSplitter({"r.f": {0, 1}}),
        )
        manager.executor(template.name).freshness_bound = 6
        # Hook the drain-vs-commit interleaving site: every few commits
        # a probe thread runs a drain while the writer is parked between
        # its WAL append and its eager apply.
        database.scheduler = _DrainCommitProbe(database, maintainer)
    return database, manager, template, maintainer


class _DrainCommitProbe:
    """Exercises the drain-vs-commit window at the ``dml.logged`` seam
    (DESIGN.md §13).

    Installed as ``database.scheduler`` so the DML path calls
    :meth:`switch` inside the statement latch, after the WAL append but
    before the eager apply — a hot record is in the log before its
    delta has landed in the view.  A probe thread then runs a drain and
    the probe asserts no registered view's watermark reached the
    in-flight LSN: claiming it would be phantom freshness.  The drain
    reads its horizon under the statement latch (non-blocking), so
    while the writer holds it the drain must read nothing.  Non-seam
    sites are ignored, so lock traffic is unaffected.
    """

    def __init__(self, database, maintainer, every: int = 5) -> None:
        self.database = database
        self.maintainer = maintainer
        self.every = every
        self.calls = 0
        self.probes = 0

    def switch(self, site: str) -> None:
        if site != "dml.logged":
            return
        self.calls += 1
        if self.calls % self.every:
            return
        self.probes += 1
        in_flight = self.database.wal.last_lsn
        watermarks: dict[str, int] = {}

        def attempt() -> None:
            self.maintainer.drain()
            for name, m in self.maintainer._registered.items():
                watermarks[name] = m.view.applied_lsn

        probe = threading.Thread(target=attempt, daemon=True)
        probe.start()
        probe.join(timeout=10.0)
        if probe.is_alive():
            raise InvariantViolation(
                "drain-vs-commit probe wedged: the drain blocked on the "
                "statement latch held by the committing writer"
            )
        for name, applied in watermarks.items():
            if applied >= in_flight:
                raise InvariantViolation(
                    f"phantom freshness: view {name!r} watermark {applied} "
                    f"reached in-flight LSN {in_flight} before its eager "
                    f"apply landed"
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
            "answer stamped staleness=0 but differs from the true answer "
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


def _run_workload(seed, database, manager, template, shadow, snapshots,
                  maintainer=None):
    """Execute the seeded op mix; raise :class:`_Crash` on simulated
    death, return the acked-op count on completion."""
    rng = random.Random(seed * 7919 + 17)
    next_r_id = 1000
    acked = 0
    for op_no in range(OPS):
        roll = rng.random()
        effect: list = []
        lsn_before = database.wal.last_lsn
        try:
            if maintainer is not None and op_no % 3 == 2:
                # Interleaved background drain: applies pending logged
                # deltas (hitting the ``cdc.drain`` fault site), no
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
                want = true_answer(database, query)
                if maintainer is None:
                    if got != want:
                        raise InvariantViolation(
                            f"query through PMV returned {sum(got.values())} tuples, "
                            f"the true answer {sum(want.values())} — stale partial results"
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
            want = true_answer(database, probe)
            if maintainer is None:
                if got != want:
                    raise InvariantViolation(
                        "read-only degradation broke reads: PMV answer "
                        "diverged from the true answer during disk-full"
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


def _recovered_factory():
    return Database(buffer_pool_pages=POOL_PAGES, page_size=PAGE_SIZE)


def _check_recovery(seed, cdc, wal_path, expected, expected_plus, snapshots) -> None:
    """The post-crash invariant battery."""
    log = WriteAheadLog.load(wal_path)
    if log.has_torn_tail:
        removed = log.repair()
        if removed <= 0:
            raise InvariantViolation("torn tail reported but repair removed 0 bytes")
        reread = WriteAheadLog.load(wal_path)
        if reread.has_torn_tail or len(reread) != len(log):
            raise InvariantViolation("repaired WAL still torn or lost records")
    recovered = recover(log, database_factory=_recovered_factory)
    verify_crash_recovery(recovered, expected, expected_plus)
    if snapshots:
        from_snapshot = recover_from_snapshot(
            snapshot_from_json(snapshots[-1]),
            log,
            buffer_pool_pages=POOL_PAGES,
            page_size=PAGE_SIZE,
        )
        if contents_of(from_snapshot, RELATIONS) != contents_of(
            recovered, RELATIONS
        ):
            raise InvariantViolation(
                "snapshot-based recovery disagrees with full-log recovery"
            )
    _check_pmv_restart(seed, cdc, recovered)


def _check_pmv_restart(seed: int, cdc: bool, recovered: Database) -> None:
    """A PMV restarted empty on the recovered database must warm up
    and serve exactly the true answer.

    In CDC mode the restarted view runs async again: views restart
    empty, so there is nothing to replay, and a *fresh* drain starts at
    the recovered log's end with zero staleness.  New writes must then
    flow log → drain → convergence, after which the strict consistency
    check still holds.
    """
    template = rs_template("tq")
    manager = attach_view(recovered, template)
    maintainer = None
    if cdc:
        # The drain reads the log: give the recovered instance one.
        recovered.wal = WriteAheadLog()
        maintainer = manager.enable_async_maintenance()
    rng = random.Random(seed + 1)
    for _ in range(3):
        query = random_binding(template, rng)
        result = manager.execute(query)
        if multiset(result.all_rows()) != true_answer(recovered, query):
            raise InvariantViolation(
                "restarted PMV disagrees with the true answer on the "
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
        exact = multiset(result.all_rows()) == true_answer(recovered, query)
        if not exact or (result.staleness or 0) != 0:
            raise InvariantViolation(
                "restarted async PMV did not converge after the post-"
                "recovery write was drained"
            )
    manager.verify_consistency()


def _check_completed(database, manager, wal_path, shadow, maintainer=None) -> None:
    """Invariants after a run that finished (fault-free, or with only
    recoverable injected errors along the way)."""
    if maintainer is not None:
        # Drain the feed dry, then demand full convergence: watermarks
        # at the current LSN and the strict (phantom-sensitive)
        # consistency check — a lost or double-applied delta surfaces
        # here as a phantom tuple or a MaintenanceError.
        maintainer.drain_to_convergence()
        if any(r.change is not None for r in database.wal.records()):
            raise InvariantViolation(
                "a logged change outlived the convergence drain"
            )
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
    recovered = recover(log, database_factory=_recovered_factory)
    verify_database(recovered)
    if contents_of(recovered, RELATIONS) != live:
        raise InvariantViolation(
            "recovering the WAL of a live database does not reproduce it"
        )


# ---------------------------------------------------------------------------
# One point, the enumeration, and the two drills
# ---------------------------------------------------------------------------

NAME = {False: "torture", True: "torture-cdc"}


def _shadow_of(database: Database) -> dict[str, dict[tuple, int]]:
    shadow: dict[str, dict[tuple, int]] = {name: {} for name in RELATIONS}
    for name in RELATIONS:
        for row in database.catalog.relation(name).scan_rows():
            values = tuple(row.values)
            shadow[name][values] = shadow[name].get(values, 0) + 1
    return shadow


def run_point(seed: int, spec: FaultSpec | None, cdc: bool = False) -> Outcome:
    """Run one seeded workload with (at most) one scheduled fault."""
    point = handle(NAME[cdc], seed, spec.describe() if spec is not None else "none")
    with tempfile.TemporaryDirectory(prefix="torture-") as workdir:
        wal_path = os.path.join(workdir, "wal")
        injector = FaultInjector(FaultPlan.none())
        database, manager, template, maintainer = _setup(seed, cdc, injector, wal_path)
        # Arm the plan only now: occurrences count workload arrivals.
        injector.plan = FaultPlan([spec]) if spec is not None else FaultPlan.none()
        injector.counts.clear()
        shadow = _shadow_of(database)
        snapshots: list[str] = []
        stage = "workload"
        try:
            try:
                acked = _run_workload(
                    seed, database, manager, template, shadow, snapshots,
                    maintainer=maintainer,
                )
            except _Crash as crash:
                database.wal.close()
                stage = "recovery-checks"
                _check_recovery(
                    seed, cdc, wal_path, crash.expected, crash.expected_plus, snapshots
                )
                condemned = crash.spec_text.endswith(":error")
                return Outcome(point, [], {"condemned" if condemned else "crashed": 1})
            stage = "final-checks"
            _check_completed(database, manager, wal_path, shadow, maintainer=maintainer)
            return Outcome(point, [], {"completed": 1, "ops_acked": acked})
        except ReproError as exc:
            return Outcome(point, [f"{stage}: {type(exc).__name__}: {exc}"])
        finally:
            injector.crashed = True  # silence any hooks during teardown
            database.wal.close()


def enumerate_points(seed: int, cdc: bool = False) -> list[FaultSpec]:
    """All fault points one seeded workload reaches: run it fault-free,
    count arrivals per site, expand (site, occurrence) by the modes
    meaningful at each site."""
    injector = FaultInjector(FaultPlan.none())
    with tempfile.TemporaryDirectory(prefix="torture-enum-") as workdir:
        wal_path = os.path.join(workdir, "wal")
        database, manager, template, maintainer = _setup(seed, cdc, injector, wal_path)
        injector.counts.clear()
        _run_workload(seed, database, manager, template, _shadow_of(database), [],
                      maintainer=maintainer)
        database.wal.close()
    return [
        FaultSpec(site, occurrence, mode)
        for site in sorted(injector.counts)
        for occurrence in range(1, injector.counts[site] + 1)
        for mode in modes_for_site(site)
    ]


def _drill(cdc: bool, seeds: tuple[int, ...], max_points: int) -> Drill:
    return Drill(
        NAME[cdc],
        points=lambda seed: [spec.describe() for spec in enumerate_points(seed, cdc)],
        run=lambda seed, schedule: run_point(
            seed, None if schedule == "none" else FaultSpec.parse(schedule), cdc
        ),
        seeds=seeds,
        max_points=max_points,
    )


DRILL = _drill(cdc=False, seeds=(0, 1), max_points=200)
CDC_DRILL = _drill(cdc=True, seeds=(0,), max_points=120)
