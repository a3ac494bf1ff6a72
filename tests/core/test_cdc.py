"""CDC-driven async maintenance: the log as the feed, routing,
freshness, drain.

Covers the DESIGN.md §13 contract end to end at unit scope: the
changes the WAL carries for the drain and the crash windows of their
append, heavy-light routing, freshness-bound enforcement around the
knob's exact value, breaker-gated drain retries, the governor's
widen-before-shrink policy, and the consistency checker's watermark
awareness.
"""

import pytest

from repro.cdc import AsyncMaintainer, HeavyLightSplitter
from repro.check import InvariantViolation, check_view_against_database
from repro.core import PMVManager
from repro.core.manager import ManagedView
from repro.engine import QueryTemplate, WriteAheadLog
from repro.engine.transactions import ChangeKind
from repro.engine.wal import LogKind
from repro.errors import LockError, MaintenanceError, PMVError
from repro.faults import FaultInjector, FaultPlan, FaultyWAL, SimulatedCrash
from repro.faults.plan import FaultMode, FaultSpec
from repro.qos.admission import AdmissionController
from repro.qos.breaker import FAILURE_THRESHOLD, CircuitBreaker
from repro.qos.governor import DegradationGovernor, GovernorConfig, QoSState
from tests.conftest import eqt_query


@pytest.fixture
def world(eqt_db, eqt):
    """A managed Eqt PMV, warm on cell (1, 2), still eager; the data
    is loaded, then a WAL is attached (the drain reads the log)."""
    eqt_db.wal = WriteAheadLog()
    manager = PMVManager(eqt_db)
    view = manager.create_view(
        eqt,
        tuples_per_entry=2,
        max_entries=16,
        aux_index_columns=("r.a", "s.e"),
    )
    executor = manager.executor("Eqt")
    executor.execute(eqt_query(eqt, [1], [2]))
    assert view.stored_tuple_count > 0
    return eqt_db, eqt, manager, view, executor


def go_async(manager, splitter=None):
    return manager.enable_async_maintenance(splitter=splitter)


def answer(executor, eqt, fs=(1,), gs=(2,)):
    return executor.execute(eqt_query(eqt, list(fs), list(gs)))


def oracle(db, query):
    return sorted(tuple(r.values) for r in db.run(query))


def logged_changes(db, after_lsn=0):
    """(LSN, change) of every record past ``after_lsn`` holding a change."""
    return [
        (r.lsn, r.change) for r in db.wal.records(after_lsn) if r.change is not None
    ]


# ---------------------------------------------------------------------------
# The log as the feed
# ---------------------------------------------------------------------------


class TestOutbox:
    """The transactional-outbox guarantees, kept by the log itself."""

    def test_explicit_lsns_preserved_and_fifo(self, world):
        """Each change rides its own statement's record, read oldest
        first from any cursor."""
        db, eqt, manager, view, executor = world
        go_async(manager)
        start = db.current_lsn()
        for i in range(3):
            db.insert("s", (11, 4, f"x{i}"))
        logged = logged_changes(db, start)
        assert [lsn for lsn, _ in logged] == [start + 1, start + 2, start + 3]
        assert [c.new_row["e"] for _, c in logged] == ["x0", "x1", "x2"]
        assert [lsn for lsn, _ in logged_changes(db, start + 1)] == [
            start + 2,
            start + 3,
        ]

    def test_requeue_restores_head(self, world):
        """A crash unwinding a drain leaves the cursor at the head: the
        next drain reads the same record again."""
        db, eqt, manager, view, executor = world
        maintainer = go_async(manager)
        victim = view.lookup((1, 2))[0]["r.a"]
        db.delete_where("r", lambda row: row["a"] == victim)
        head = view.applied_lsn
        db.fault_hook = FaultInjector(
            FaultPlan([FaultSpec("cdc.drain", 1, FaultMode.CRASH_BEFORE)])
        ).fire
        with pytest.raises(SimulatedCrash):
            maintainer.drain()
        assert view.applied_lsn == head
        db.fault_hook = None
        assert maintainer.drain() == 1
        assert maintainer.stats()["deltas_applied"] == 1
        assert maintainer.lag(view) == 0

    def test_applied_up_to_respects_earlier_unapplied(self, world):
        """A hot delta applied at write time moves the cursor only when
        no earlier record still awaits the view."""
        db, eqt, manager, view, executor = world
        maintainer = go_async(manager, splitter=HeavyLightSplitter({"r.f": {1}}))
        hot = view.lookup((1, 2))[0]["r.a"]
        start = view.applied_lsn
        db.insert("s", (11, 4, "undrained"))  # the cursor must read past it
        db.delete_where("r", lambda row: row["a"] == hot)  # f == 1: hot
        assert all(row["r.a"] != hot for row in (view.lookup((1, 2)) or []))
        assert view.applied_lsn == start  # the insert is still unread
        assert maintainer.drain() == 2
        assert maintainer.stats()["eager_skips"] == 1  # the hot delete
        assert maintainer.stats()["deltas_applied"] == 0
        assert maintainer.lag(view) == 0


class TestFeedWiring:
    def test_every_dml_kind_feeds_the_outbox(self, world):
        """Every DML kind's record carries its change for the drain."""
        db, eqt, manager, view, executor = world
        go_async(manager)
        start = db.current_lsn()
        db.insert("r", (900, 1, 1, "new"))
        db.delete_where("r", lambda row: row["id"] == 900)
        row_id = next(
            rid for rid, row in db.catalog.relation("r").scan()
            if row["id"] == 1
        )
        db.update("r", row_id, a="renamed")
        kinds = [change.kind for _, change in logged_changes(db, start)]
        assert kinds == [ChangeKind.INSERT, ChangeKind.DELETE, ChangeKind.UPDATE]

    def test_aborted_statement_leaves_no_record(self, world):
        """A hot-routed write denied its X lock aborts in prepare —
        before the heap and the WAL, so the log holds nothing for it."""
        db, eqt, manager, view, executor = world
        go_async(manager, splitter=HeavyLightSplitter(default_hot=True))
        start = db.current_lsn()
        reader = db.begin(read_only=True)
        reader.lock_shared(view.name, wait=False)
        with pytest.raises(LockError):
            db.delete_where("r", lambda row: row["id"] == 1)
        reader.commit()
        assert db.current_lsn() == start
        assert db.catalog.relation("r").row_count == 120  # nothing deleted

    def test_a_refused_prepare_releases_the_other_views_locks(self):
        """With two views, the second view's lock denial aborts the
        statement, and the X lock the first view's prepare took goes
        with it: the prepare state rides on the statement's change."""
        db, eqt, manager, view, executor = _wal_world()
        twin = QueryTemplate(
            name="Eqt2",
            relations=eqt.relations,
            select_list=eqt.select_list,
            joins=eqt.joins,
            slots=eqt.slots,
        )
        other = manager.create_view(twin, tuples_per_entry=2, max_entries=16)
        reader = db.begin(read_only=True)
        reader.lock_shared(other.name, wait=False)
        with pytest.raises(LockError):
            db.delete_where("r", lambda row: row["id"] == 1)
        reader.commit()
        probe = db.begin(read_only=True)
        probe.lock_shared(view.name, wait=False)  # raises if the X leaked
        probe.commit()

    def test_no_change_is_kept_without_a_drain(self, world):
        db, eqt, manager, view, executor = world
        db.insert("s", (11, 4, "eager"))
        db.delete_where("r", lambda row: row["id"] == 1)
        assert db.wal.change_feed is None
        assert logged_changes(db) == []

    def test_a_frame_is_the_same_with_and_without_a_drain(self):
        """The change rides beside the frame, never inside it: the
        same statements log byte-identical frames either way."""
        logs = []
        for drained in (True, False):
            db, eqt, manager, view, executor = _wal_world()
            if drained:
                go_async(manager)
            start = db.current_lsn()
            db.insert("r", (900, 1, 1, "new"))
            db.delete_where("r", lambda row: row["id"] == 900)
            row_id = next(
                rid for rid, row in db.catalog.relation("r").scan() if row["id"] == 1
            )
            db.update("r", row_id, a="renamed", idem="k1")
            logs.append(list(db.wal.records(start)))
        fed, bare = logs
        assert all(r.change is not None for r in fed)
        assert [r.frame for r in fed] == [r.frame for r in bare]

    def test_drained_records_drop_their_change(self, world):
        db, eqt, manager, view, executor = world
        maintainer = go_async(manager)
        for i in range(5):
            db.insert("s", (11, 4, f"x{i}"))
        assert len(logged_changes(db)) == 5
        maintainer.drain(max_records=2)
        assert [lsn for lsn, _ in logged_changes(db)] == [
            r.lsn for r in db.wal.records(view.applied_lsn)
        ]
        assert len(logged_changes(db)) == 3
        maintainer.drain_to_convergence()
        assert logged_changes(db) == []

    def test_a_log_feeds_one_drain(self, world):
        """A second drain would drop changes the first one's views
        still need, so it is refused."""
        db, eqt, manager, view, executor = world
        AsyncMaintainer(db).register(manager.managed()[0])
        with pytest.raises(MaintenanceError, match="another drain"):
            AsyncMaintainer(db).register(manager.managed()[0])

    def test_a_drain_needs_a_wal(self, eqt_db):
        with pytest.raises(MaintenanceError, match="WAL"):
            AsyncMaintainer(eqt_db)


# ---------------------------------------------------------------------------
# Heavy-light routing
# ---------------------------------------------------------------------------


class TestRouting:
    def test_cold_change_is_deferred(self, world):
        db, eqt, manager, view, executor = world
        maintainer = go_async(manager)
        before = view.stored_tuple_count
        victim = view.lookup((1, 2))[0]["r.a"]
        db.delete_where("r", lambda row: row["a"] == victim)
        assert view.stored_tuple_count == before  # not maintained yet
        assert view.metrics.maintenance_deferred == 1
        assert maintainer.lag(view) == 1

    def test_hot_change_applied_at_write_time(self, world):
        db, eqt, manager, view, executor = world
        maintainer = go_async(manager, splitter=HeavyLightSplitter({"r.f": {1}}))
        victim = view.lookup((1, 2))[0]["r.a"]
        db.delete_where("r", lambda row: row["a"] == victim)  # f == 1: hot
        assert all(
            row["r.a"] != victim for row in (view.lookup((1, 2)) or [])
        )
        assert maintainer.lag(view) == 0  # eager apply advanced the watermark
        assert maintainer.drain() == 0  # the cursor is already past it
        assert maintainer.stats()["deltas_applied"] == 0

    def test_non_hot_value_stays_cold(self, world):
        db, eqt, manager, view, executor = world
        maintainer = go_async(manager, splitter=HeavyLightSplitter({"r.f": {3}}))
        victim = view.lookup((1, 2))[0]["r.a"]
        db.delete_where("r", lambda row: row["a"] == victim)  # f == 1: cold
        assert view.metrics.maintenance_deferred == 1
        assert maintainer.lag(view) == 1


# ---------------------------------------------------------------------------
# Freshness accounting
# ---------------------------------------------------------------------------


class TestFreshness:
    def _lag_by(self, db, n):
        for i in range(n):
            db.insert("s", (11, 4, f"lagfill{i}"))  # relevant relation, cold

    def test_bound_enforced_exactly_at_the_knob(self, world):
        db, eqt, manager, view, executor = world
        executor.freshness_bound = 3
        maintainer = go_async(manager)
        for lag, expect_bypass in ((2, False), (1, False), (1, True)):
            self._lag_by(db, lag)  # cumulative: 2, 3, 4
            result = answer(executor, eqt)
            assert result.metrics.bypassed_stale is expect_bypass
            if expect_bypass:
                assert result.staleness == 0  # answered by full execution
            else:
                assert result.staleness == maintainer.lag(view)

    def test_stamp_is_true_upper_bound_and_zero_after_drain(self, world):
        db, eqt, manager, view, executor = world
        maintainer = go_async(manager)
        self._lag_by(db, 2)
        result = answer(executor, eqt)
        assert result.staleness == 2
        assert result.applied_lsn == view.applied_lsn
        maintainer.drain_to_convergence()
        result = answer(executor, eqt)
        assert result.staleness == 0

    def test_eager_view_carries_no_stamp(self, world):
        db, eqt, manager, view, executor = world
        result = answer(executor, eqt)
        assert result.staleness is None
        assert result.applied_lsn is None

    def test_stale_extras_counted_not_raised(self, world):
        """An undrained delete leaves bounded-stale extras in O2; the
        O3 ledger must count them instead of raising PMVError."""
        db, eqt, manager, view, executor = world
        go_async(manager)
        victim = view.lookup((1, 2))[0]["r.a"]
        db.delete_where("r", lambda row: row["a"] == victim)
        result = answer(executor, eqt)
        assert result.complete
        assert result.metrics.stale_partial_tuples >= 1
        got = sorted(tuple(r.values) for r in result.all_rows())
        want = oracle(db, eqt_query(eqt, [1], [2]))
        for item in want:  # truth ⊆ answer
            assert item in got


# ---------------------------------------------------------------------------
# The drain
# ---------------------------------------------------------------------------


class TestDrain:
    def test_drain_converges_and_answers_exactly(self, world):
        db, eqt, manager, view, executor = world
        maintainer = go_async(manager)
        db.delete_where("r", lambda row: row["f"] == 1 and row["id"] < 40)
        maintainer.drain_to_convergence()
        assert logged_changes(db) == []  # every change drained
        assert maintainer.lag(view) == 0
        query = eqt_query(eqt, [1], [2])
        result = executor.execute(query)
        assert sorted(tuple(r.values) for r in result.all_rows()) == oracle(
            db, query
        )
        manager.verify_consistency()

    def test_lock_denial_requeues_and_yields(self, world):
        db, eqt, manager, view, executor = world
        maintainer = go_async(manager)
        victim = view.lookup((1, 2))[0]["r.a"]
        db.delete_where("r", lambda row: row["a"] == victim)
        reader = db.begin(read_only=True)
        reader.lock_shared(view.name, wait=False)
        assert maintainer.drain() == 0
        assert maintainer.lock_yields == 1
        assert maintainer.lag(view) == 1  # the cursor stayed: nothing lost
        reader.commit()
        assert maintainer.drain() == 1
        assert maintainer.lag(view) == 0

    def test_breaker_gates_drain_lock_acquisition(self, world):
        db, eqt, manager, view, executor = world
        maintainer = go_async(manager)
        breaker = CircuitBreaker(clock=lambda: 0.0)
        maintainer._registered[view.name].breaker = breaker
        for _ in range(FAILURE_THRESHOLD):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        victim = view.lookup((1, 2))[0]["r.a"]
        db.delete_where("r", lambda row: row["a"] == victim)
        reader = db.begin(read_only=True)
        reader.lock_shared(view.name, wait=False)
        # Open breaker: a single no-wait attempt, no parking, a yield.
        assert maintainer.drain() == 0
        assert maintainer.lock_yields == 1
        reader.commit()
        # Lock free: the no-wait attempt succeeds and closes the breaker.
        assert maintainer.drain() == 1
        assert breaker.state == CircuitBreaker.CLOSED

    def test_error_mid_drain_triggers_failsafe_clear(self, world):
        db, eqt, manager, view, executor = world
        maintainer = go_async(manager)
        injector = FaultInjector(
            FaultPlan([FaultSpec("cdc.drain", 1, FaultMode.ERROR)])
        )
        db.fault_hook = injector.fire
        victim = view.lookup((1, 2))[0]["r.a"]
        db.delete_where("r", lambda row: row["a"] == victim)
        assert maintainer.drain() == 1  # the record is consumed...
        assert maintainer.failsafe_clears == 1  # ...via the fail-safe
        assert view.stored_tuple_count == 0  # empty = correct subset
        assert maintainer.lag(view) == 0  # empty view is fresh as of now
        manager.verify_consistency()


# ---------------------------------------------------------------------------
# Crash windows of the append
# ---------------------------------------------------------------------------


class TestAppendCrashWindows:
    """A change reaches the feed with its WAL record, so the feed's
    append crash windows are the log's own."""

    def _crash_world(self, mode):
        db, eqt, manager, view, executor = _wal_world()
        injector = FaultInjector(FaultPlan([FaultSpec("wal.append", 1, mode)]))
        db.wal = FaultyWAL(injector)
        go_async(manager)
        with pytest.raises(SimulatedCrash):
            db.delete_where("r", lambda row: row["id"] == 1)
        return db

    def test_crash_before_stores_nothing(self):
        db = self._crash_world(FaultMode.CRASH_BEFORE)
        assert db.current_lsn() == 0
        assert logged_changes(db) == []

    def test_crash_after_stores_the_record(self):
        db = self._crash_world(FaultMode.CRASH_AFTER)
        assert db.current_lsn() == 1
        assert [c.kind for _, c in logged_changes(db)] == [ChangeKind.DELETE]

    def test_error_mode_is_not_meaningful_at_append(self):
        with pytest.raises(ValueError):
            FaultSpec("wal.append", 1, FaultMode.ERROR)


# ---------------------------------------------------------------------------
# Consistency checking with watermarks
# ---------------------------------------------------------------------------


class TestVerifyConsistency:
    def test_intentionally_stale_view_passes(self, world):
        """Regression: before watermark awareness, verify_consistency
        reported an undrained async view as a phantom divergence."""
        db, eqt, manager, view, executor = world
        go_async(manager)
        victim = view.lookup((1, 2))[0]["r.a"]
        db.delete_where("r", lambda row: row["a"] == victim)
        # The strict checker still sees the stale extra...
        with pytest.raises(InvariantViolation):
            check_view_against_database(db, view)
        # ...but the manager knows the view is intentionally behind.
        manager.verify_consistency()

    def test_converged_view_gets_the_strict_check(self, world):
        """A lost delta must not hide behind async mode: once the
        watermark claims convergence, a stale cached tuple is a bug."""
        db, eqt, manager, view, executor = world
        go_async(manager)
        victim = view.lookup((1, 2))[0]["r.a"]
        db.delete_where("r", lambda row: row["a"] == victim)
        # Simulate a lost delta: watermark advances, tuple not removed.
        view.applied_lsn = db.current_lsn()
        with pytest.raises(InvariantViolation):
            manager.verify_consistency()

    def test_structural_checks_run_even_when_stale(self, world):
        db, eqt, manager, view, executor = world
        go_async(manager)
        db.delete_where("r", lambda row: row["id"] == 0)
        # allow_stale skips only the phantom check; a corrupted aux
        # index still trips the checker.
        column = view.aux_index_columns[0]
        bucket = view._aux[column]
        if bucket:
            value = next(iter(bucket))
            key = next(iter(bucket[value]))
            bucket[value][key] += 1
            with pytest.raises(InvariantViolation):
                manager.verify_consistency()


# ---------------------------------------------------------------------------
# Governor policy and manager wiring
# ---------------------------------------------------------------------------


class TestGovernor:
    def test_degraded_widens_freshness_before_shrinking_ub(self, world):
        db, eqt, manager, view, executor = world
        executor.freshness_bound = 5
        view.set_upper_bound(8192)
        go_async(manager)
        governor = DegradationGovernor(
            manager,
            AdmissionController(),
            GovernorConfig(freshness_widen_factor=4.0),
        )
        governor._enter_degraded()
        assert governor.state == QoSState.DEGRADED
        assert executor.freshness_bound == 20  # widened first
        assert view.upper_bound_bytes == 4096  # then shrunk
        governor._exit_degraded()
        assert executor.freshness_bound == 5
        assert view.upper_bound_bytes == 8192

    def test_eager_view_bounds_untouched(self, world):
        db, eqt, manager, view, executor = world
        executor.freshness_bound = 5
        governor = DegradationGovernor(manager, AdmissionController())
        governor._enter_degraded()
        assert executor.freshness_bound == 5  # not async: no widening
        governor._exit_degraded()

    def test_adopt_manager_clears_saved_freshness_bounds(self, world):
        db, eqt, manager, view, executor = world
        executor.freshness_bound = 5
        go_async(manager)
        governor = DegradationGovernor(manager, AdmissionController())
        governor._enter_degraded()
        governor.adopt_manager(manager)
        assert governor._saved_freshness_bounds == {}


class TestManagerWiring:
    def test_enable_unknown_template_raises(self, world):
        db, eqt, manager, view, executor = world
        with pytest.raises(PMVError):
            manager.enable_async_maintenance(template_names=["nope"])

    def test_register_accepts_managed_view(self, world):
        db, eqt, manager, view, executor = world
        am = AsyncMaintainer(db)
        managed = manager.managed()[0]
        assert isinstance(managed, ManagedView)
        am.register(managed)
        assert view.async_maintenance
        assert managed.maintainer.async_mode


# ---------------------------------------------------------------------------
# Watermark regressions (ISSUE 8): drain-vs-commit race, register-mid-backlog
# ---------------------------------------------------------------------------


def _wal_world():
    """The conftest Eqt world rebuilt per call with a WAL attached
    from the start (the fixture's world attaches one after loading)."""
    from repro.engine import (
        Column,
        Database,
        INTEGER,
        JoinEquality,
        QueryTemplate,
        SelectionSlot,
        SlotForm,
        TEXT,
        WriteAheadLog,
    )

    database = Database(wal=WriteAheadLog())
    database.create_relation(
        "r",
        [
            Column("id", INTEGER, nullable=False),
            Column("c", INTEGER, nullable=False),
            Column("f", INTEGER, nullable=False),
            Column("a", TEXT),
        ],
    )
    database.create_relation(
        "s",
        [
            Column("d", INTEGER, nullable=False),
            Column("g", INTEGER, nullable=False),
            Column("e", TEXT),
        ],
    )
    database.create_index("r_f", "r", ["f"])
    database.create_index("r_c", "r", ["c"])
    database.create_index("s_d", "s", ["d"])
    database.create_index("s_g", "s", ["g"])
    for i in range(48):
        database.insert("r", (i, i % 12, i % 6, f"a{i}"))
    for j in range(24):
        database.insert("s", (j % 12, j % 5, f"e{j}"))
    template = QueryTemplate(
        name="Eqt",
        relations=("r", "s"),
        select_list=("r.a", "s.e"),
        joins=(JoinEquality("r", "c", "s", "d"),),
        slots=(
            SelectionSlot("r", "r.f", SlotForm.EQUALITY),
            SelectionSlot("s", "s.g", SlotForm.EQUALITY),
        ),
    )
    database.register_template(template)
    manager = PMVManager(database)
    view = manager.create_view(
        template,
        tuples_per_entry=2,
        max_entries=16,
        aux_index_columns=("r.a", "s.e"),
    )
    executor = manager.executor("Eqt")
    executor.execute(eqt_query(template, [1], [2]))
    assert view.stored_tuple_count > 0
    return database, template, manager, view, executor


class TestWatermarkRace:
    """Regression for the phantom-freshness race.

    A writer's commit is two steps inside the statement latch: WAL
    append (the record and its change are in the log) then the eager
    apply.  A drain reading the log between them could pass the record
    as already applied and move the cursor past a delta that has not
    landed.  The drain therefore reads its horizon under the statement
    latch (non-blocking), so it sees both steps or neither.
    """

    def test_drain_interleaved_inside_commit_keeps_watermark_honest(self):
        from repro.faults import InterleavingScheduler

        windows_hit = 0
        for seed in range(8):
            db, eqt, manager, view, executor = _wal_world()
            am = go_async(manager)  # registers the view, attaches the feed
            sched = InterleavingScheduler(seed)
            db.install_scheduler(sched)
            # Cold-routed relevant delete: row id 1 has f == 1, the
            # view's warm entry — its feed record *must* hold the
            # watermark back until drained.
            writer = sched.spawn(
                "writer", db.delete_where, "r", lambda row: row["id"] == 1
            )
            drainer = sched.spawn("drainer", am.drain)
            writer.start()
            drainer.start()
            sched.launch()
            writer.join(timeout=10.0)
            drainer.join(timeout=10.0)
            assert not writer.is_alive() and not drainer.is_alive(), (
                f"seed {seed}: schedule wedged (deadlock in the "
                f"watermark catch-up path)"
            )
            db.install_scheduler(None)
            deleted = next(
                r.lsn for r in db.wal.records() if r.kind is LogKind.DELETE
            )
            if view.applied_lsn >= deleted:
                assert am.deltas_applied == 1, (
                    f"seed {seed}: watermark {view.applied_lsn} claims the "
                    f"unapplied delete at LSN {deleted} (phantom freshness)"
                )
            windows_hit += am.advance_skips
            am.drain_to_convergence()
            assert am.lag(view) == 0
            manager.verify_consistency()
        # At least one seed must actually interleave the drain into the
        # commit window, or the sweep proved nothing.
        assert windows_hit >= 1

    def test_advance_skip_is_recoverable(self):
        """A skipped catch-up is caught up by the very next drain."""
        db, eqt, manager, view, executor = _wal_world()
        am = go_async(manager)
        db.wal.checkpoint()
        am.drain()
        assert am.lag(view) == 0


class TestRegisterMidBacklog:
    """Regression for double-apply of pre-registration records.

    A view maintained eagerly until its registration has absorbed
    every change logged up to then.  Its cursor starts at the
    registration LSN, so the drain never reads those records again.
    """

    def test_pending_records_not_double_applied(self, world):
        db, eqt, manager, view, executor = world
        am = AsyncMaintainer(db)  # drain built; view still eager
        victim = view.lookup((1, 2))[0]["r.a"]
        db.delete_where("r", lambda row: row["a"] == victim)
        # Eagerly maintained at write time, and logged.
        assert all(
            row["r.a"] != victim for row in (view.lookup((1, 2)) or [])
        )
        deleted_lsn = db.current_lsn()
        before = view.stored_tuple_count
        am.register(manager.managed()[0])
        assert view.applied_lsn >= deleted_lsn  # fresh as of registration
        assert am.drain() == 0  # the record is behind the cursor
        stats = am.stats()
        assert stats["deltas_applied"] == 0, (
            "drain re-applied a delta the eager path already absorbed"
        )
        assert view.stored_tuple_count == before
        assert am.lag(view) == 0
        manager.verify_consistency()

    def test_records_past_registration_lsn_still_apply(self, world):
        db, eqt, manager, view, executor = world
        am = AsyncMaintainer(db)
        victim1, victim2 = [row["r.a"] for row in view.lookup((1, 2))[:2]]
        db.delete_where("r", lambda row: row["a"] == victim1)  # pre-register
        am.register(manager.managed()[0])
        db.delete_where("r", lambda row: row["a"] == victim2)  # post-register
        assert am.drain() == 1  # only the post-registration record
        stats = am.stats()
        assert stats["deltas_applied"] == 1
        assert all(
            row["r.a"] not in (victim1, victim2)
            for row in (view.lookup((1, 2)) or [])
        )
        manager.verify_consistency()
