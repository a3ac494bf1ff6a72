"""CDC-driven async maintenance: outbox, routing, freshness, drain.

Covers the DESIGN.md §13 contract end to end at unit scope: the
transactional outbox's ordering and durability windows, heavy-light
routing, freshness-bound enforcement around the knob's exact value,
breaker-gated drain retries, the governor's widen-before-shrink
policy, and the consistency checker's watermark awareness.
"""

import pytest

from repro.cdc import AsyncMaintainer, ChangeOutbox, HeavyLightSplitter
from repro.check import InvariantViolation, check_view_against_database
from repro.core import PMVManager
from repro.core.manager import ManagedView
from repro.engine.transactions import Change, ChangeKind
from repro.errors import LockError, MaintenanceError, PMVError
from repro.faults import FaultInjector, FaultPlan, SimulatedCrash
from repro.faults.plan import FaultMode, FaultSpec
from repro.qos.admission import AdmissionController
from repro.qos.breaker import FAILURE_THRESHOLD, CircuitBreaker
from repro.qos.governor import DegradationGovernor, GovernorConfig, QoSState
from tests.conftest import eqt_query


@pytest.fixture
def world(eqt_db, eqt):
    """A managed Eqt PMV, warm on cell (1, 2), still eager."""
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


def go_async(manager, splitter=None, outbox=None):
    return manager.enable_async_maintenance(outbox=outbox, splitter=splitter)


def answer(executor, eqt, fs=(1,), gs=(2,)):
    return executor.execute(eqt_query(eqt, list(fs), list(gs)))


def oracle(db, query):
    return sorted(tuple(r.values) for r in db.run(query))


def dummy_delete():
    """A schema-less DELETE change — the outbox never reads the row."""
    return Change(ChangeKind.DELETE, "r", old_row=object())


# ---------------------------------------------------------------------------
# The outbox itself
# ---------------------------------------------------------------------------


class TestOutbox:
    def test_self_assigned_lsns_are_monotonic(self):
        outbox = ChangeOutbox()
        change = dummy_delete()
        lsns = [outbox.append(change).lsn for _ in range(5)]
        assert lsns == [1, 2, 3, 4, 5]
        assert outbox.last_lsn == 5

    def test_explicit_lsns_preserved_and_fifo(self):
        outbox = ChangeOutbox()
        change = dummy_delete()
        for lsn in (7, 9, 12):
            outbox.append(change, lsn=lsn)
        assert [r.lsn for r in outbox.pending()] == [7, 9, 12]
        assert outbox.take().lsn == 7
        assert outbox.peek_lsn() == 9

    def test_requeue_restores_head(self):
        outbox = ChangeOutbox()
        change = dummy_delete()
        outbox.append(change)
        outbox.append(change)
        head = outbox.take()
        outbox.requeue(head)
        assert outbox.peek_lsn() == head.lsn

    def test_applied_up_to_respects_earlier_unapplied(self):
        outbox = ChangeOutbox()
        change = dummy_delete()
        outbox.append(change)  # lsn 1
        outbox.append(change)  # lsn 2
        outbox.mark_applied(2, "v")
        assert not outbox.applied_up_to(2, "v")  # lsn 1 still pending
        outbox.mark_applied(1, "v")
        assert outbox.applied_up_to(2, "v")


class TestFeedWiring:
    def test_every_dml_kind_feeds_the_outbox(self, world):
        db, eqt, manager, view, executor = world
        go_async(manager)
        db.insert("r", (900, 1, 1, "new"))
        db.delete_where("r", lambda row: row["id"] == 900)
        row_id = next(
            rid for rid, row in db.catalog.relation("r").scan()
            if row["id"] == 1
        )
        db.update("r", row_id, a="renamed")
        kinds = [r.change.kind for r in db.outbox.pending()]
        assert kinds == [ChangeKind.INSERT, ChangeKind.DELETE, ChangeKind.UPDATE]

    def test_aborted_statement_leaves_no_record(self, world):
        """A hot-routed write denied its X lock aborts in prepare —
        before the heap, the WAL, and therefore the outbox."""
        db, eqt, manager, view, executor = world
        go_async(manager, splitter=HeavyLightSplitter(default_hot=True))
        reader = db.begin(read_only=True)
        reader.lock_shared(view.name, wait=False)
        with pytest.raises(LockError):
            db.delete_where("r", lambda row: row["id"] == 1)
        reader.commit()
        assert len(db.outbox) == 0
        assert db.catalog.relation("r").row_count == 120  # nothing deleted


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
        maintainer.drain()
        assert maintainer.stats()["eager_skips"] == 1
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
        drained = maintainer.drain_to_convergence()
        assert drained == len(db.outbox.pending()) + drained  # feed empty
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
        assert len(db.outbox) == 1  # requeued, not lost
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

    def test_out_of_order_feed_raises(self, world):
        db, eqt, manager, view, executor = world
        maintainer = go_async(manager)
        db.insert("s", (11, 4, "x1"))
        maintainer.drain()
        # Re-inject an already-drained LSN: the double-apply guard trips.
        db.outbox.append(dummy_delete(), lsn=1)
        with pytest.raises(MaintenanceError, match="out of order"):
            maintainer.drain()

    def test_error_mid_drain_triggers_failsafe_clear(self, world):
        db, eqt, manager, view, executor = world
        maintainer = go_async(manager)
        injector = FaultInjector(
            FaultPlan([FaultSpec("outbox.drain", 1, FaultMode.ERROR)])
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
    def _crash_plan(self, mode):
        return FaultInjector(FaultPlan([FaultSpec("outbox.append", 1, mode)]))

    def test_crash_before_stores_nothing(self):
        injector = self._crash_plan(FaultMode.CRASH_BEFORE)
        outbox = ChangeOutbox(fault_check=injector.check)
        with pytest.raises(SimulatedCrash):
            outbox.append(dummy_delete())
        assert len(outbox) == 0
        assert outbox.appended == 0

    def test_crash_after_stores_the_record(self):
        injector = self._crash_plan(FaultMode.CRASH_AFTER)
        outbox = ChangeOutbox(fault_check=injector.check)
        with pytest.raises(SimulatedCrash):
            outbox.append(dummy_delete())
        assert len(outbox) == 1
        assert outbox.appended == 1

    def test_error_mode_is_not_meaningful_at_append(self):
        with pytest.raises(ValueError):
            FaultSpec("outbox.append", 1, FaultMode.ERROR)


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
    """The conftest Eqt world rebuilt per call with a WAL attached.

    The phantom-freshness window only exists with a WAL: the writer
    bumps ``current_lsn()`` at ``wal.append`` and only later (still
    inside the statement latch) appends the feed record, so a drain
    interleaved between the two sees a *newer* LSN over an *empty*
    feed.  On a WAL-less database the LSN source is the outbox itself
    and the two steps collapse into one.
    """
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
    """Regression for the `_advance_to_feed_end` phantom-freshness race.

    A writer's commit is two steps inside the statement latch: WAL
    append (LSN bumps) then outbox append (feed record visible).  A
    drain whose feed-end catch-up runs between them used to read the
    new LSN over a still-empty feed and jump every watermark past the
    unapplied change.  The fix takes the statement latch (non-blocking)
    around the LSN read + emptiness check, so the catch-up either sees
    both steps or neither.
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
            for record in db.outbox.pending():
                if view.name not in record.applied_views:
                    assert view.applied_lsn < record.lsn, (
                        f"seed {seed}: watermark {view.applied_lsn} claims "
                        f"unapplied feed record at LSN {record.lsn} "
                        f"(phantom freshness)"
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
    """Regression for double-apply of pre-registration feed records.

    Once an outbox is attached, *every* DML feeds it — including writes
    against views still maintained eagerly.  Registering such a view
    used to set its watermark to the current LSN while leaving the
    already-pending records unstamped, so the next drain re-applied
    deltas the eager path had already absorbed.
    """

    def test_pending_records_not_double_applied(self, world):
        db, eqt, manager, view, executor = world
        am = AsyncMaintainer(db)  # feed attached; view still eager
        victim = view.lookup((1, 2))[0]["r.a"]
        db.delete_where("r", lambda row: row["a"] == victim)
        # Eagerly maintained at write time, yet recorded in the feed.
        assert all(
            row["r.a"] != victim for row in (view.lookup((1, 2)) or [])
        )
        assert len(db.outbox) == 1
        pending_lsn = db.outbox.peek_lsn()
        before = view.stored_tuple_count
        am.register(manager.managed()[0])
        assert view.applied_lsn >= pending_lsn  # fresh as of registration
        assert am.drain() == 1
        stats = am.stats()
        assert stats["deltas_applied"] == 0, (
            "drain re-applied a delta the eager path already absorbed"
        )
        assert stats["eager_skips"] == 1
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
        assert am.drain() == 2
        stats = am.stats()
        assert stats["eager_skips"] == 1  # the pre-registration record
        assert stats["deltas_applied"] == 1  # the post-registration one
        assert all(
            row["r.a"] not in (victim1, victim2)
            for row in (view.lookup((1, 2)) or [])
        )
        manager.verify_consistency()
