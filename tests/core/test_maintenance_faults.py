"""Injected failures inside deferred PMV maintenance.

The two maintenance fault sites:

- ``maintenance.prepare`` fires in the prepare phase, before the X
  lock and before the base write — an injected failure there must
  abort the whole statement with *nothing* changed (base, WAL, PMV);
- ``maintenance.apply`` fires in the stale-tuple removal, after the
  base write and its WAL append — an injected failure there leaves the
  statement durable, and the maintainer's fail-safe must clear the PMV
  so it cannot serve a single stale tuple (probing every bcp against
  the full-query reference proves it).

Both are exercised under both maintenance strategies.
"""

import pytest

from repro.check import check_view_against_database
from repro.core import Discretization, MaintenanceStrategy, PMVManager
from repro.engine import WriteAheadLog
from repro.errors import FaultInjectionError
from repro.faults import (
    FaultInjector,
    FaultMode,
    FaultPlan,
)
from tests.conftest import brute_force_eqt, eqt_query

STRATEGIES = [MaintenanceStrategy.DELTA_JOIN, MaintenanceStrategy.AUX_INDEX]


@pytest.fixture
def walled_eqt_db(eqt_db):
    """The shared Figure 1 database with an in-memory WAL attached, so
    the tests can assert whether a statement was logged."""
    eqt_db.wal = WriteAheadLog()
    return eqt_db


def _managed(database, template, strategy):
    manager = PMVManager(database, maintenance_strategy=strategy)
    view = manager.create_view(
        template,
        Discretization(template),
        tuples_per_entry=2,
        max_entries=16,
        aux_index_columns=("r.a", "s.e"),
    )
    # Warm the cache so maintenance has something to invalidate.
    for f, g in [(0, 0), (1, 1), (2, 2), (3, 0), (4, 1)]:
        manager.execute(eqt_query(template, [f], [g]))
    assert view.stored_tuple_count > 0
    return manager, view


def _arm(database, site, mode):
    injector = FaultInjector(FaultPlan.crash_at(site, 1, mode))
    database.fault_hook = injector.fire
    return injector


def _first_r_row(database):
    return next(iter(database.catalog.relation("r").scan()))


@pytest.mark.parametrize("strategy", STRATEGIES)
class TestPrepareFailure:
    def test_statement_aborts_with_nothing_changed(
        self, walled_eqt_db, eqt, strategy
    ):
        database = walled_eqt_db
        manager, view = _managed(database, eqt, strategy)
        row_id, row = _first_r_row(database)
        rows_before = database.catalog.relation("r").row_count
        wal_before = len(database.wal)
        tuples_before = view.stored_tuple_count
        _arm(database, "maintenance.prepare", FaultMode.ERROR)

        with pytest.raises(FaultInjectionError):
            database.delete("r", row_id)

        # Nothing happened: the fault fired before the X lock and
        # before the heap was touched.
        assert database.catalog.relation("r").row_count == rows_before
        assert tuple(database.catalog.relation("r").fetch(row_id).values) == tuple(
            row.values
        )
        assert len(database.wal) == wal_before
        assert view.stored_tuple_count == tuples_before
        check_view_against_database(database, view)

    def test_no_lock_is_leaked(self, walled_eqt_db, eqt, strategy):
        database = walled_eqt_db
        _managed(database, eqt, strategy)
        row_id, _ = _first_r_row(database)
        _arm(database, "maintenance.prepare", FaultMode.ERROR)
        with pytest.raises(FaultInjectionError):
            database.delete("r", row_id)
        database.fault_hook = None
        # A leaked X lock (or a stuck pending maintenance txn) would
        # wedge the very next statement.
        database.delete("r", row_id)

    def test_update_aborts_cleanly_too(self, walled_eqt_db, eqt, strategy):
        database = walled_eqt_db
        manager, view = _managed(database, eqt, strategy)
        row_id, row = _first_r_row(database)
        wal_before = len(database.wal)
        _arm(database, "maintenance.prepare", FaultMode.ERROR)
        with pytest.raises(FaultInjectionError):
            database.update("r", row_id, a="changed")
        assert database.catalog.relation("r").fetch(row_id)["a"] == row["a"]
        assert len(database.wal) == wal_before
        check_view_against_database(database, view)


@pytest.mark.parametrize("strategy", STRATEGIES)
class TestApplyFailure:
    def test_failsafe_clears_every_stale_entry(self, walled_eqt_db, eqt, strategy):
        database = walled_eqt_db
        manager, view = _managed(database, eqt, strategy)
        row_id, _ = _first_r_row(database)
        rows_before = database.catalog.relation("r").row_count
        wal_before = len(database.wal)
        _arm(database, "maintenance.apply", FaultMode.ERROR)

        with pytest.raises(FaultInjectionError):
            database.delete("r", row_id)

        # The base statement is durable: it was applied and logged
        # before maintenance ran.
        assert database.catalog.relation("r").row_count == rows_before - 1
        assert len(database.wal) == wal_before + 1
        # The fail-safe wiped the view: zero entries means zero stale
        # entries, and an empty PMV is always a correct PMV.
        assert view.entry_count == 0
        assert view.stored_tuple_count == 0
        assert view.metrics.maintenance_failsafe_clears == 1
        check_view_against_database(database, view)

    def test_view_refills_correctly_afterwards(self, walled_eqt_db, eqt, strategy):
        database = walled_eqt_db
        manager, view = _managed(database, eqt, strategy)
        row_id, _ = _first_r_row(database)
        _arm(database, "maintenance.apply", FaultMode.ERROR)
        with pytest.raises(FaultInjectionError):
            database.delete("r", row_id)
        database.fault_hook = None

        # Probe every bcp the workload touches against the oracle.
        for f in range(6):
            for g in range(5):
                result = manager.execute(eqt_query(eqt, [f], [g]))
                got = sorted(
                    (row["r.a"], row["s.e"]) for row in result.all_rows()
                )
                want = sorted(
                    (a, e) for a, e, _, _ in brute_force_eqt(database, [f], [g])
                )
                assert got == want, f"stale answer for f={f}, g={g}"
        assert view.stored_tuple_count > 0
        check_view_against_database(database, view)

    def test_no_pending_txn_survives(self, walled_eqt_db, eqt, strategy):
        database = walled_eqt_db
        manager, _ = _managed(database, eqt, strategy)
        row_id, _ = _first_r_row(database)
        _arm(database, "maintenance.apply", FaultMode.ERROR)
        with pytest.raises(FaultInjectionError):
            database.delete("r", row_id)
        database.fault_hook = None
        # The maintainer committed its prepare-phase txn in the unwind;
        # the next statement must not deadlock on a leaked X lock.
        next_id, _ = _first_r_row(database)
        database.delete("r", next_id)


class TestFaultAccounting:
    def test_injector_counts_and_fires_once(self, walled_eqt_db, eqt):
        database = walled_eqt_db
        _managed(database, eqt, MaintenanceStrategy.DELTA_JOIN)
        injector = _arm(database, "maintenance.apply", FaultMode.ERROR)
        row_id, _ = _first_r_row(database)
        with pytest.raises(FaultInjectionError):
            database.delete("r", row_id)
        assert [spec.describe() for spec in injector.fired] == [
            "maintenance.apply:1:error"
        ]
        # The plan is spent: later statements reach the site unharmed.
        next_id, _ = _first_r_row(database)
        database.delete("r", next_id)
        assert injector.counts["maintenance.apply"] >= 2
