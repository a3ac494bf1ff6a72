"""Scripted interleavings of the Section 3.6 locking protocol.

The paper's argument: a query S-locks the PMV across O2→O3, so no
concurrent transaction can change what the query already read from the
PMV — "Q would not have read anomaly."  These tests script the
interleavings directly (the engine is single-process, so interleaving
points are explicit calls):

1. maintenance attempted *while a query holds its S lock* is denied;
2. with the protocol disabled (an unsafe maintainer that skips the X
   lock), the exact anomaly the paper warns about appears: the PMV
   serves a tuple in O2 that full execution no longer derives, and the
   DS invariant catches it;
3. a caller-scoped transaction serializes a full read-then-read
   sequence against writers.
"""

import pytest

from repro.core import PMVExecutor, PMVMaintainer
from repro.core.maintenance import MaintenanceStrategy
from repro.errors import LockError, PMVError
from tests.conftest import cached_count, eqt_query


class _UnsafeMaintainer(PMVMaintainer):
    """A maintainer that violates the protocol: no X lock, neither in
    the prepare phase nor before touching the PMV."""

    def prepare_change(self, change, txn):
        pass

    def abort_change(self, change, txn):
        pass

    def _remove_derived(self, relation, old_row, txn):
        if self.strategy is MaintenanceStrategy.AUX_INDEX:
            self._remove_via_aux_index(relation, old_row)
        else:
            self._remove_via_delta_join(relation, old_row)


class _SkippingMaintainer(PMVMaintainer):
    """Worse: a 'maintainer' that silently does nothing on deletes,
    leaving stale tuples in the PMV."""

    def prepare_change(self, change, txn):
        pass

    def abort_change(self, change, txn):
        pass

    def _remove_derived(self, relation, old_row, txn):
        pass


class TestProtocolEnforced:
    def test_maintenance_denied_while_query_holds_s_lock(
        self, eqt_db, eqt, eqt_pmv, eqt_executor
    ):
        # The reader never releases, so the statement waits out its
        # retry budget and must abort with a LockError.
        PMVMaintainer(eqt_db, eqt_pmv).attach()
        eqt_executor.execute(eqt_query(eqt, [1], [2]))
        reader = eqt_db.begin(read_only=True)
        # The query is "between O2 and O3": it holds the S lock.
        reader.lock_shared(eqt_pmv.name, wait=False)
        with pytest.raises(LockError):
            eqt_db.delete_where("r", lambda row: row["f"] == 1)
        reader.commit()
        # After the reader finishes, maintenance proceeds.
        eqt_db.delete_where("r", lambda row: row["f"] == 1)
        assert cached_count(eqt_pmv, (1, 2)) == 0

    def test_writer_degrades_new_queries_to_bypass(
        self, eqt_db, eqt, eqt_pmv, eqt_executor
    ):
        # The O2 lock-denial bugfix: a held X lock no longer raises
        # LockError out of execute(); the query bypasses the PMV and
        # still returns the complete answer.
        eqt_executor.lock_timeout = 0.01
        writer = eqt_db.begin()
        writer.lock_exclusive(eqt_pmv.name, wait=False)
        degraded = eqt_executor.execute(eqt_query(eqt, [1], [2]))
        assert degraded.metrics.bypassed_lock
        assert degraded.metrics.remaining_tuples > 0
        writer.commit()
        result = eqt_executor.execute(eqt_query(eqt, [1], [2]))
        assert not result.metrics.bypassed_lock
        assert sorted(tuple(r.values) for r in result.all_rows()) == sorted(
            tuple(r.values) for r in degraded.all_rows()
        )

    def test_two_readers_coexist(self, eqt_db, eqt, eqt_pmv, eqt_executor):
        txn_a = eqt_db.begin(read_only=True)
        txn_b = eqt_db.begin(read_only=True)
        ra = eqt_executor.execute(eqt_query(eqt, [1], [2]), txn=txn_a)
        rb = eqt_executor.execute(eqt_query(eqt, [1], [2]), txn=txn_b)
        assert sorted(tuple(r.values) for r in ra.all_rows()) == sorted(
            tuple(r.values) for r in rb.all_rows()
        )
        txn_a.commit()
        txn_b.commit()


class TestAnomalyWithoutProtocol:
    def test_stale_partial_detected_when_maintenance_skipped(
        self, eqt_db, eqt, eqt_pmv, eqt_executor
    ):
        """With a broken maintainer that never removes stale tuples,
        the PMV serves O2 results that O3 cannot re-derive — exactly
        the inconsistency the protocol + maintenance rule out — and the
        DS emptiness check raises."""
        _SkippingMaintainer(eqt_db, eqt_pmv).attach()
        eqt_executor.execute(eqt_query(eqt, [1], [2]))  # cache (1,2)
        eqt_db.delete_where("r", lambda row: row["f"] == 1)  # silently unmaintained
        with pytest.raises(PMVError, match="DS not empty"):
            eqt_executor.execute(eqt_query(eqt, [1], [2]))

    def test_unsafe_maintainer_mutates_under_readers(
        self, eqt_db, eqt, eqt_pmv, eqt_executor
    ):
        """An X-lock-skipping maintainer changes the PMV even while a
        reader transaction holds the S lock — demonstrating what the
        protocol exists to prevent (the engine is single-threaded, so
        this shows the *permission*, not a torn read)."""
        _UnsafeMaintainer(eqt_db, eqt_pmv).attach()
        eqt_executor.execute(eqt_query(eqt, [1], [2]))
        assert cached_count(eqt_pmv, (1, 2)) == 2
        reader = eqt_db.begin(read_only=True)
        reader.lock_shared(eqt_pmv.name, wait=False)
        # No LockError: the unsafe maintainer ignores the protocol and
        # shrinks the PMV out from under the reader.
        eqt_db.delete_where("s", lambda row: row["g"] == 2)
        assert cached_count(eqt_pmv, (1, 2)) == 0
        reader.commit()


class TestSerializableSequences:
    def test_repeatable_pmv_reads_within_transaction(
        self, eqt_db, eqt, eqt_pmv, eqt_executor
    ):
        """Two O2 probes inside one transaction see the same PMV state
        because the S lock is held for the transaction's duration and
        writers are denied in between."""
        PMVMaintainer(eqt_db, eqt_pmv).attach()
        eqt_executor.execute(eqt_query(eqt, [1], [2]))
        txn = eqt_db.begin(read_only=True)
        first = eqt_executor.preview(eqt_query(eqt, [1], [2]), txn=txn)
        with pytest.raises(LockError):
            eqt_db.delete_where("s", lambda row: row["g"] == 2)
        second = eqt_executor.preview(eqt_query(eqt, [1], [2]), txn=txn)
        assert [tuple(r.values) for r in first.partial_rows] == [
            tuple(r.values) for r in second.partial_rows
        ]
        txn.commit()


# ---------------------------------------------------------------------------
# Real-thread interleavings (PR 3: the waiting lock manager)
# ---------------------------------------------------------------------------

import random
import threading
import time

from repro.check import check_view_against_database
from repro.engine.locks import LockMode
from repro.errors import DeadlockError


class TestThreadedProtocol:
    def test_dml_waits_for_reader_commit_then_succeeds(
        self, eqt_db, eqt, eqt_pmv, eqt_executor
    ):
        """A maintenance X request against a live S holder PARKS (it no
        longer fails fast) and completes once the reader commits."""
        PMVMaintainer(eqt_db, eqt_pmv).attach()
        reader = eqt_db.begin(read_only=True)
        eqt_executor.execute(eqt_query(eqt, {1}, {2}), txn=reader)  # holds S
        errors = []
        done = threading.Event()

        def writer():
            try:
                eqt_db.delete_where("r", lambda row: row["id"] == 13)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                done.set()

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        deadline = time.monotonic() + 5.0
        while eqt_db.lock_manager.stats()["queued"] == 0:
            assert time.monotonic() < deadline, "writer never queued"
            time.sleep(0.001)
        assert not done.is_set()  # parked behind the S lock, not failed
        reader.commit()
        assert done.wait(10.0) and not errors
        thread.join(5.0)
        check_view_against_database(eqt_db, eqt_pmv)

    def test_dual_upgrade_deadlock_resolved_by_timeout(self, eqt_db, eqt_pmv):
        """Two S holders that both upgrade wait on each other — a true
        deadlock; the timeout policy must break it, not hang."""
        lm = eqt_db.lock_manager
        lm.acquire(1, eqt_pmv.name, LockMode.SHARED, wait=False)
        lm.acquire(2, eqt_pmv.name, LockMode.SHARED, wait=False)
        outcomes = {}

        def upgrade(txn_id):
            try:
                lm.acquire(
                    txn_id, eqt_pmv.name, LockMode.EXCLUSIVE, wait=True, timeout=0.3
                )
                outcomes[txn_id] = "granted"
            except DeadlockError:
                lm.release_all(txn_id)  # abort: break the cycle
                outcomes[txn_id] = "aborted"

        threads = [
            threading.Thread(target=upgrade, args=(t,), daemon=True) for t in (1, 2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert not any(thread.is_alive() for thread in threads), "deadlock hung"
        # At least one side must have been aborted by timeout; aborting
        # it may let the survivor's upgrade through (sole-holder rule).
        assert "aborted" in outcomes.values()

    def test_o2_bypass_under_writer_thread_lockout(self, eqt_db, eqt, eqt_pmv):
        """Reader threads racing a long X hold degrade to bypass —
        complete answers, zero LockErrors."""
        executor = PMVExecutor(eqt_db, eqt_pmv, lock_timeout=0.02)
        writer = eqt_db.begin()
        writer.lock_exclusive(eqt_pmv.name, wait=False)
        results, errors = [], []

        def reader(index):
            try:
                result = executor.execute(eqt_query(eqt, {index % 6}, {2}))
                results.append(result)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(i,), daemon=True) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        writer.commit()
        assert not errors
        assert len(results) == 4
        assert all(r.metrics.bypassed_lock for r in results)
        for i, result in enumerate(results):
            assert sorted(tuple(r.values) for r in result.all_rows())

    def test_reader_and_writer_threads_stay_consistent(
        self, eqt_db, eqt, eqt_pmv, eqt_executor
    ):
        """A miniature free-running soak on the shared fixtures: PMV
        reads racing relevant DML must neither error nor go stale."""
        PMVMaintainer(eqt_db, eqt_pmv).attach()
        errors = []

        def reader(index):
            rng = random.Random(index)
            try:
                for _ in range(8):
                    eqt_executor.execute(
                        eqt_query(eqt, {rng.randrange(6)}, {rng.randrange(5)})
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(("reader", exc))

        def writer():
            try:
                for k in range(6):
                    row_id = eqt_db.insert("r", (1000 + k, k % 12, k % 6, f"w{k}"))
                    eqt_db.update("r", row_id, a=f"w{k}x")
                    eqt_db.delete("r", row_id)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(("writer", exc))

        threads = [
            threading.Thread(target=reader, args=(i,), daemon=True) for i in range(4)
        ] + [threading.Thread(target=writer, daemon=True)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        eqt_pmv.check_invariants()
        check_view_against_database(eqt_db, eqt_pmv)
        assert eqt_db.lock_manager.stats()["active_objects"] == 0
