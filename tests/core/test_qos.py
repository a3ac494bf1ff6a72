"""Unit tests for the QoS subsystem: deadlines, admission, breaker,
governor, serving gate, and the deadline-degraded executor paths."""

import itertools
import threading
import time

import pytest

from repro.core import PMVManager
from repro.core.metrics import PMVMetrics, QoSMetrics
from repro.core.view import entries_for_budget
from repro.engine import Database
from repro.errors import LockError, OverloadError, QoSError, ViewCapacityError
from repro.qos.breaker import FAILURE_THRESHOLD
from repro.qos import (
    AdmissionController,
    CircuitBreaker,
    Deadline,
    DegradationGovernor,
    GovernorConfig,
    QoSState,
    ServingGate,
)
from tests.conftest import eqt_query


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def eqt_manager(eqt_db, eqt):
    manager = PMVManager(eqt_db)
    manager.create_view(
        eqt,
        tuples_per_entry=2,
        max_entries=16,
        aux_index_columns=("r.a", "s.e"),
        upper_bound_bytes=8192,
    )
    return manager


# ---------------------------------------------------------------------------
# Deadline
# ---------------------------------------------------------------------------


class TestDeadline:
    def test_budget_accounting(self):
        clock = FakeClock()
        deadline = Deadline.after(2.0, clock=clock)
        assert deadline.remaining() == 2.0 and not deadline.expired()
        clock.advance(1.5)
        assert deadline.remaining() == pytest.approx(0.5)
        clock.advance(1.0)
        assert deadline.expired() and deadline.remaining() == 0.0

    def test_zero_budget_expires_immediately(self):
        assert Deadline.after(0.0, clock=FakeClock()).expired()

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline.after(-1.0)

    def test_tightened_scales_remaining(self):
        clock = FakeClock()
        deadline = Deadline.after(4.0, clock=clock)
        clock.advance(2.0)
        tightened = deadline.tightened(0.5)
        assert tightened.remaining() == pytest.approx(1.0)
        assert deadline.remaining() == pytest.approx(2.0)  # original untouched
        assert deadline.tightened(1.0) is deadline  # factor >= 1 is identity


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_concurrency_limit_and_release(self):
        ac = AdmissionController(max_concurrency=2, max_queue_depth=0)
        s1, s2 = ac.admit(), ac.admit()
        assert ac.running == 2
        with pytest.raises(OverloadError) as info:
            ac.admit()
        assert info.value.reason == "queue_full"
        assert isinstance(info.value, QoSError)
        s1.release()
        s1.release()  # idempotent
        assert ac.running == 1
        with ac.admit():
            assert ac.running == 2
        s2.release()
        assert ac.running == 0

    def test_queue_handoff_to_waiter(self):
        ac = AdmissionController(max_concurrency=1, max_queue_depth=4, queue_timeout=5.0)
        slot = ac.admit()
        admitted = threading.Event()

        def waiter():
            with ac.admit():
                admitted.set()

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        while ac.queue_depth == 0:  # waiter parked
            time.sleep(0.001)
        slot.release()  # hands the slot over instead of freeing it
        assert admitted.wait(5.0)
        thread.join(5.0)
        assert ac.running == 0 and ac.queue_depth == 0

    def test_queue_timeout_sheds(self):
        ac = AdmissionController(max_concurrency=1, max_queue_depth=4)
        slot = ac.admit()
        with pytest.raises(OverloadError) as info:
            ac.admit(timeout=0.01)
        assert info.value.reason == "timeout"
        slot.release()

    def test_shedding_mode_bypasses_queue(self):
        ac = AdmissionController(max_concurrency=1, max_queue_depth=8)
        slot = ac.admit()
        ac.set_shedding(True)
        with pytest.raises(OverloadError) as info:
            ac.admit()
        assert info.value.reason == "shedding"
        ac.set_shedding(False)
        slot.release()
        ac.admit().release()  # a free slot admits even while shedding

    def test_token_bucket_rate_limit(self):
        clock = FakeClock()
        ac = AdmissionController(rate=1.0, burst=2.0, clock=clock)
        ac.admit().release()
        ac.admit().release()
        with pytest.raises(OverloadError) as info:
            ac.admit()
        assert info.value.reason == "rate"
        clock.advance(1.0)  # refill one token
        ac.admit().release()

    def test_shed_reasons_metered(self):
        metrics = QoSMetrics()
        ac = AdmissionController(max_concurrency=1, max_queue_depth=0, metrics=metrics)
        slot = ac.admit()
        for _ in range(2):
            with pytest.raises(OverloadError):
                ac.admit()
        slot.release()
        snap = metrics.snapshot()
        assert snap["qos_admitted"] == 1
        assert snap["qos_shed"] == 2
        assert snap["qos_shed_by_reason"] == {"queue_full": 2}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_concurrency=0)
        with pytest.raises(ValueError):
            AdmissionController(max_queue_depth=-1)
        with pytest.raises(ValueError):
            AdmissionController(rate=0.0)


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------


def _tripped(breaker):
    for _ in range(FAILURE_THRESHOLD):
        breaker.record_failure()
    return breaker


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(clock=clock)
        breaker.record_failure()
        breaker.record_success()  # success resets the streak
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow_retries()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow_retries()
        assert breaker.opens == 1

    def test_half_open_probe_and_close(self):
        clock = FakeClock()
        breaker = _tripped(CircuitBreaker(clock=clock))
        assert not breaker.allow_retries()
        clock.advance(1.5)
        assert breaker.state == "half_open"
        assert breaker.allow_retries()  # the single probe
        assert not breaker.allow_retries()  # second caller is still barred
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow_retries()

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = _tripped(CircuitBreaker(clock=clock))
        clock.advance(1.5)
        assert breaker.allow_retries()
        breaker.record_failure()
        assert breaker.state == "open" and breaker.opens == 2

    def test_metrics_report_transitions(self):
        metrics = QoSMetrics()
        breaker = _tripped(CircuitBreaker(metrics=metrics))
        assert metrics.snapshot()["breaker_state"] == "open"
        assert metrics.snapshot()["breaker_opens"] == 1
        breaker.reset()
        assert metrics.snapshot()["breaker_state"] == "closed"
        assert metrics.snapshot()["breaker_opens"] == 1  # opens never reset


# ---------------------------------------------------------------------------
# Degradation governor
# ---------------------------------------------------------------------------


def _governor(manager, clock, **overrides) -> DegradationGovernor:
    knobs = dict(
        degrade_p99=0.5,
        shed_p99=2.0,
        degrade_queue=8,
        shed_queue=24,
        recover_ticks=2,
        latency_window=4,
        tick_interval=0.0,
    )
    knobs.update(overrides)
    config = GovernorConfig(**knobs)
    return DegradationGovernor(
        manager, AdmissionController(), config=config,
        metrics=QoSMetrics(), clock=clock,
    )


class TestGovernor:
    def test_elevated_p99_enters_degraded_and_shrinks_ub(self, eqt_manager):
        governor = _governor(eqt_manager, FakeClock())
        view = eqt_manager.managed()[0].view
        maintainer = eqt_manager.managed()[0].maintainer
        assert maintainer.breaker is None
        for _ in range(4):
            governor.observe_latency(1.0)
        assert governor.tick() == QoSState.DEGRADED
        assert view.upper_bound_bytes == 4096  # 8192 * 0.5
        assert maintainer.breaker is governor.breaker
        assert governor.deadline_factor_now() == 0.5

    def test_hysteresis_requires_consecutive_healthy_ticks(self, eqt_manager):
        governor = _governor(eqt_manager, FakeClock())
        for _ in range(4):
            governor.observe_latency(1.0)
        governor.tick()
        for _ in range(4):  # drain the window with healthy latencies
            governor.observe_latency(0.001)
        assert governor.tick() == QoSState.DEGRADED  # healthy x1: holds
        for _ in range(4):
            governor.observe_latency(1.0)
        governor.tick()  # pressure back: streak resets
        for _ in range(4):
            governor.observe_latency(0.001)
        assert governor.tick() == QoSState.DEGRADED
        assert governor.tick() == QoSState.NORMAL  # healthy x2: steps down

    def test_recovery_restores_budgets_and_breaker(self, eqt_manager):
        governor = _governor(eqt_manager, FakeClock())
        view = eqt_manager.managed()[0].view
        maintainer = eqt_manager.managed()[0].maintainer
        for _ in range(4):
            governor.observe_latency(1.0)
        governor.tick()
        governor.breaker.record_failure()  # dirty the breaker while DEGRADED
        for _ in range(4):
            governor.observe_latency(0.001)
        governor.tick()
        governor.tick()
        assert governor.state == QoSState.NORMAL
        assert view.upper_bound_bytes == 8192
        assert maintainer.breaker is None
        assert governor.breaker.state == "closed"
        assert governor.deadline_factor_now() == 1.0

    def test_severe_pressure_escalates_to_shed_and_back(self, eqt_manager):
        governor = _governor(eqt_manager, FakeClock())
        for _ in range(4):
            governor.observe_latency(5.0)  # beyond shed_p99
        assert governor.tick() == QoSState.SHED
        assert governor.admission.stats()["shedding"] is True
        assert governor.transitions[:2] == [
            (QoSState.NORMAL, QoSState.DEGRADED),
            (QoSState.DEGRADED, QoSState.SHED),
        ]
        for _ in range(4):
            governor.observe_latency(0.001)
        governor.tick(), governor.tick()  # SHED -> DEGRADED
        assert governor.state == QoSState.DEGRADED
        assert governor.admission.stats()["shedding"] is False
        governor.tick(), governor.tick()  # DEGRADED -> NORMAL
        assert governor.state == QoSState.NORMAL
        assert governor.metrics.snapshot()["qos_state_transitions"] == 4

    def test_maybe_tick_is_interval_gated(self, eqt_manager):
        clock = FakeClock()
        governor = _governor(eqt_manager, clock, tick_interval=1.0)
        for _ in range(4):
            governor.observe_latency(1.0)
        governor.maybe_tick()  # too soon after construction
        assert governor.state == QoSState.NORMAL
        clock.advance(1.5)
        governor.maybe_tick()
        assert governor.state == QoSState.DEGRADED


# ---------------------------------------------------------------------------
# Serving gate + deadline-degraded execution
# ---------------------------------------------------------------------------


class TestServingGate:
    def test_complete_answer_counted(self, eqt_manager, eqt):
        gate = ServingGate(eqt_manager)
        answer = gate.execute(eqt_query(eqt, [1], [2]))
        assert answer.complete is True
        snap = gate.metrics.snapshot()
        assert snap["qos_admitted"] == 1 and snap["qos_complete_answers"] == 1

    def test_zero_budget_returns_explicit_partial(self, eqt_manager, eqt):
        gate = ServingGate(eqt_manager)
        gate.execute(eqt_query(eqt, [1], [2]))  # warm the PMV
        answer = gate.execute(eqt_query(eqt, [1], [2]), deadline=0.0)
        assert answer.complete is False
        assert answer.degraded_reason == "deadline-skip"
        assert answer.completeness_estimate is not None
        full = sorted(tuple(r.values) for r in eqt_manager.database.run(answer.query))
        got = [tuple(r.values) for r in answer.all_rows()]
        assert all(row in full for row in got)
        snap = gate.metrics.snapshot()
        assert snap["qos_partial_answers"] == 1
        view_snap = eqt_manager.view("Eqt").metrics.snapshot()
        assert view_snap["qos_partial_answers"] == 1

    def test_shed_raises_typed_error(self, eqt_manager, eqt):
        gate = ServingGate(
            eqt_manager,
            admission=AdmissionController(max_concurrency=1, max_queue_depth=0),
        )
        blocker = gate.admission.admit()
        with pytest.raises(OverloadError) as info:
            gate.execute(eqt_query(eqt, [1], [2]))
        assert info.value.reason == "queue_full"
        blocker.release()
        assert gate.metrics.snapshot()["qos_shed"] == 1

    def test_stats_compose_every_layer(self, eqt_manager, eqt):
        gate = ServingGate(eqt_manager)
        gate.execute(eqt_query(eqt, [1], [2]))
        stats = gate.stats()
        assert stats["qos_admitted"] == 1
        assert stats["admission"]["running"] == 0
        assert stats["governor"]["state"] == QoSState.NORMAL
        assert stats["views"]["Eqt"]["queries"] == 1
        assert stats["database_swallowed_errors"] == 0

    def test_on_o3_fires_for_degraded_answers(self, eqt_manager, eqt):
        gate = ServingGate(eqt_manager)
        seen = []
        answer = gate.execute(
            eqt_query(eqt, [1], [2]), deadline=0.0, on_o3=seen.append
        )
        assert answer.complete is False
        assert len(seen) == 1  # the degraded answer has a serialization point


class TestExecutorDeadlines:
    def test_abandon_at_batch_checkpoint(self, eqt_manager, eqt):
        # Clock sequence: creation, post-O2 checkpoint OK, first batch
        # checkpoint expired -> "deadline-abandon" with O2 rows only.
        ticks = itertools.chain([0.0, 0.0], itertools.repeat(10.0))
        deadline = Deadline.after(1.0, clock=lambda: next(ticks))
        eqt_manager.execute(eqt_query(eqt, [1], [2]))  # warm
        answer = eqt_manager.execute(eqt_query(eqt, [1], [2]), deadline=deadline)
        assert answer.complete is False
        assert answer.degraded_reason == "deadline-abandon"
        assert answer.metrics.deadline_degraded is True
        full = sorted(tuple(r.values) for r in eqt_manager.database.run(answer.query))
        got = [tuple(r.values) for r in answer.all_rows()]
        assert all(row in full for row in got)

    def test_no_deadline_is_zero_cost_complete(self, eqt_manager, eqt):
        answer = eqt_manager.execute(eqt_query(eqt, [3], [4]))
        assert answer.complete is True and answer.degraded_reason is None
        assert answer.completeness_estimate is None

    def test_generous_deadline_completes_exactly(self, eqt_manager, eqt):
        answer = eqt_manager.execute(
            eqt_query(eqt, [2], [3]), deadline=Deadline.after(60.0)
        )
        assert answer.complete is True
        from tests.conftest import brute_force_eqt

        assert sorted(tuple(r.values) for r in answer.all_rows()) == brute_force_eqt(
            eqt_manager.database, {2}, {3}
        )


# ---------------------------------------------------------------------------
# Satellites: view re-budgeting, breaker-gated maintenance, swallow audit
# ---------------------------------------------------------------------------


class TestViewRebudget:
    def test_entries_for_budget_strict_vs_degraded(self):
        with pytest.raises(ViewCapacityError):
            entries_for_budget(10, 3, 50)
        assert entries_for_budget(10, 3, 50, strict=False) == 0
        with pytest.raises(ViewCapacityError):
            entries_for_budget(0, 3, 50, strict=False)  # nonsense stays an error

    def test_shrink_below_one_entry_degrades_to_empty_alive(self, eqt_manager, eqt):
        view = eqt_manager.view("Eqt")
        eqt_manager.execute(eqt_query(eqt, [1], [2]))
        eqt_manager.execute(eqt_query(eqt, [1], [2]))
        assert view.entry_count > 0
        view.set_upper_bound(1)  # below any entry: shed everything
        assert view.entry_count == 0 and view.current_bytes == 0
        view.check_invariants()
        # Still alive: queries keep working and refill after restore.
        answer = eqt_manager.execute(eqt_query(eqt, [1], [2]))
        assert answer.complete is True
        view.set_upper_bound(8192)
        eqt_manager.execute(eqt_query(eqt, [1], [2]))
        eqt_manager.execute(eqt_query(eqt, [1], [2]))
        assert view.entry_count > 0

    def test_nonpositive_runtime_bound_clamped(self, eqt_manager):
        view = eqt_manager.view("Eqt")
        view.set_upper_bound(0)
        assert view.upper_bound_bytes == 1
        view.set_upper_bound(None)
        assert view.upper_bound_bytes is None


class TestBreakerGatedMaintenance:
    def test_open_breaker_skips_retries(self, eqt_manager, eqt):
        database = eqt_manager.database
        maintainer = eqt_manager.maintainer("Eqt")
        view = eqt_manager.view("Eqt")
        breaker = _tripped(CircuitBreaker(clock=FakeClock()))
        maintainer.breaker = breaker
        reader = database.begin()
        reader.lock_shared(view.name, wait=False)
        retries_before = view.metrics.maintenance_lock_retries
        target = next(iter(database.catalog.relation("r").scan()))[0]
        with pytest.raises(LockError):
            database.delete("r", target)
        # Fast-fail: no parking, no retry backoff.
        assert view.metrics.maintenance_lock_retries == retries_before
        reader.commit()

    def test_half_open_probe_recovers(self, eqt_manager, eqt):
        database = eqt_manager.database
        maintainer = eqt_manager.maintainer("Eqt")
        clock = FakeClock()
        breaker = _tripped(CircuitBreaker(clock=clock))
        maintainer.breaker = breaker
        clock.advance(2.0)  # half-open: the probe goes through the retry path
        target = next(iter(database.catalog.relation("r").scan()))[0]
        database.delete("r", target)  # no reader: probe succeeds
        assert breaker.state == "closed"


class TestSwallowAudit:
    def test_abort_listeners_are_best_effort(self, db):
        calls = []
        db.add_abort_listener(lambda c, t: (_ for _ in ()).throw(ValueError("boom")))
        db.add_abort_listener(lambda c, t: calls.append(True))
        db._notify_abort(None, None)
        assert calls == [True]  # later listeners still ran
        assert db.swallowed_errors == 1

    def test_control_exceptions_resurface_after_cleanup(self, db):
        calls = []
        db.add_abort_listener(
            lambda c, t: (_ for _ in ()).throw(KeyboardInterrupt())
        )
        db.add_abort_listener(lambda c, t: calls.append(True))
        with pytest.raises(KeyboardInterrupt):
            db._notify_abort(None, None)
        assert calls == [True]
        assert db.swallowed_errors == 0  # control exceptions are not swallows

    def test_pmv_metrics_snapshot_has_qos_counters(self):
        snap = PMVMetrics().snapshot()
        assert snap["qos_partial_answers"] == 0
        assert snap["swallowed_errors"] == 0


# ---------------------------------------------------------------------------
# Failover adoption (replication rewiring, DESIGN.md §11)
# ---------------------------------------------------------------------------


class TestFailoverAdoption:
    """The governor/gate side of failover: adopting a promoted fleet
    must restore its configured budgets even mid-DEGRADED — the warm
    standby cache is the point of having one."""

    def _standby_manager(self, eqt_db, eqt):
        standby = PMVManager(eqt_db)
        standby.create_view(
            eqt,
            tuples_per_entry=2,
            max_entries=16,
            aux_index_columns=("r.a", "s.e"),
            upper_bound_bytes=8192,
        )
        return standby

    def test_adopt_while_degraded_restores_configured_bounds(self, eqt_db, eqt):
        primary_manager = PMVManager(eqt_db)
        primary_manager.create_view(
            eqt, tuples_per_entry=2, max_entries=16, upper_bound_bytes=8192
        )
        governor = _governor(primary_manager, FakeClock())
        for _ in range(4):
            governor.observe_latency(1.0)
        assert governor.tick() == QoSState.DEGRADED
        standby = self._standby_manager(eqt_db, eqt)
        standby_view = standby.managed()[0].view
        standby_view.set_upper_bound(1024)  # mirrored a shrunken budget
        governor.adopt_manager(standby)
        assert governor.manager is standby
        # The promoted view serves at its operator-configured budget
        # immediately, not at the dead primary's shrunken one.
        assert standby_view.upper_bound_bytes == 8192
        # Mid-DEGRADED adoption attaches the breaker to the new fleet.
        assert standby.managed()[0].maintainer.breaker is governor.breaker

    def test_recovery_after_adoption_keeps_configured_bounds(self, eqt_db, eqt):
        primary_manager = PMVManager(eqt_db)
        primary_manager.create_view(
            eqt, tuples_per_entry=2, max_entries=16, upper_bound_bytes=8192
        )
        governor = _governor(primary_manager, FakeClock())
        for _ in range(4):
            governor.observe_latency(1.0)
        governor.tick()
        standby = self._standby_manager(eqt_db, eqt)
        governor.adopt_manager(standby)
        view = standby.managed()[0].view
        for _ in range(4):
            governor.observe_latency(0.001)
        governor.tick(), governor.tick()
        # Leaving DEGRADED restores the *standby's* configured bound —
        # the saved-bounds map was re-seeded at adoption, so recovery
        # cannot resurrect the dead primary's budgets.
        assert governor.state == QoSState.NORMAL
        assert view.upper_bound_bytes == 8192
        assert standby.managed()[0].maintainer.breaker is None

    def test_adopt_with_explicit_bounds_override(self, eqt_db, eqt):
        primary_manager = PMVManager(eqt_db)
        primary_manager.create_view(
            eqt, tuples_per_entry=2, max_entries=16, upper_bound_bytes=8192
        )
        governor = _governor(primary_manager, FakeClock())
        standby = self._standby_manager(eqt_db, eqt)
        governor.adopt_manager(standby, configured_bounds={"pmv_Eqt": 2048})
        assert standby.managed()[0].view.upper_bound_bytes == 2048

    def test_gate_rebind_reroutes_and_reports_wal_checksums(self, eqt_db, eqt):
        from repro.engine import Database, WriteAheadLog

        primary_manager = PMVManager(eqt_db)
        primary_manager.create_view(
            eqt, tuples_per_entry=2, max_entries=16, upper_bound_bytes=8192
        )
        gate = ServingGate(primary_manager)
        assert gate.stats()["wal_checksum_failures"] == 0  # no WAL at all
        logged_db = Database(wal=WriteAheadLog())
        standby = PMVManager(logged_db)
        gate.rebind(standby)
        assert gate.manager is standby
        assert gate.governor.manager is standby
        logged_db.wal.checksum_failures = 3
        assert gate.stats()["wal_checksum_failures"] == 3
