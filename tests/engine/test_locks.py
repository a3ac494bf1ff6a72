"""Unit tests for the lock manager (Section 3.6's S/X protocol)."""

import pytest

from repro.engine.locks import LockManager, LockMode
from repro.errors import LockError


@pytest.fixture
def lm():
    return LockManager()


class TestSharedLocks:
    def test_multiple_readers(self, lm):
        lm.acquire(1, "pmv", LockMode.SHARED, wait=False)
        lm.acquire(2, "pmv", LockMode.SHARED, wait=False)
        assert lm.holds(1, "pmv", LockMode.SHARED)
        assert lm.holds(2, "pmv", LockMode.SHARED)

    def test_shared_blocked_by_exclusive(self, lm):
        lm.acquire(1, "pmv", LockMode.EXCLUSIVE, wait=False)
        with pytest.raises(LockError):
            lm.acquire(2, "pmv", LockMode.SHARED, wait=False)

    def test_reacquire_idempotent(self, lm):
        lm.acquire(1, "pmv", LockMode.SHARED, wait=False)
        lm.acquire(1, "pmv", LockMode.SHARED, wait=False)
        shared, exclusive = lm.holders("pmv")
        assert shared == {1} and exclusive is None


class TestExclusiveLocks:
    def test_exclusive_blocked_by_shared(self, lm):
        lm.acquire(1, "pmv", LockMode.SHARED, wait=False)
        with pytest.raises(LockError):
            lm.acquire(2, "pmv", LockMode.EXCLUSIVE, wait=False)

    def test_exclusive_blocked_by_exclusive(self, lm):
        lm.acquire(1, "pmv", LockMode.EXCLUSIVE, wait=False)
        with pytest.raises(LockError):
            lm.acquire(2, "pmv", LockMode.EXCLUSIVE, wait=False)

    def test_upgrade_when_sole_holder(self, lm):
        lm.acquire(1, "pmv", LockMode.SHARED, wait=False)
        lm.acquire(1, "pmv", LockMode.EXCLUSIVE, wait=False)
        assert lm.holds(1, "pmv", LockMode.EXCLUSIVE)

    def test_upgrade_blocked_by_other_reader(self, lm):
        lm.acquire(1, "pmv", LockMode.SHARED, wait=False)
        lm.acquire(2, "pmv", LockMode.SHARED, wait=False)
        with pytest.raises(LockError):
            lm.acquire(1, "pmv", LockMode.EXCLUSIVE, wait=False)

    def test_x_subsumes_s(self, lm):
        lm.acquire(1, "pmv", LockMode.EXCLUSIVE, wait=False)
        assert lm.holds(1, "pmv", LockMode.SHARED)


class TestRelease:
    def test_release_frees_object(self, lm):
        lm.acquire(1, "pmv", LockMode.EXCLUSIVE, wait=False)
        lm.release(1, "pmv")
        lm.acquire(2, "pmv", LockMode.EXCLUSIVE, wait=False)

    def test_release_all(self, lm):
        lm.acquire(1, "a", LockMode.SHARED, wait=False)
        lm.acquire(1, "b", LockMode.EXCLUSIVE, wait=False)
        lm.release_all(1)
        lm.acquire(2, "a", LockMode.EXCLUSIVE, wait=False)
        lm.acquire(2, "b", LockMode.EXCLUSIVE, wait=False)

    def test_release_unheld_is_noop(self, lm):
        lm.release(1, "nothing")

    def test_other_holders_survive_release(self, lm):
        lm.acquire(1, "pmv", LockMode.SHARED, wait=False)
        lm.acquire(2, "pmv", LockMode.SHARED, wait=False)
        lm.release(1, "pmv")
        assert lm.holds(2, "pmv", LockMode.SHARED)
        with pytest.raises(LockError):
            lm.acquire(3, "pmv", LockMode.EXCLUSIVE, wait=False)


class TestAccounting:
    def test_grants_and_denials_counted(self, lm):
        lm.acquire(1, "a", LockMode.SHARED, wait=False)
        try:
            lm.acquire(2, "a", LockMode.EXCLUSIVE, wait=False)
        except LockError:
            pass
        assert lm.grants == 1
        assert lm.denials == 1

    def test_compatibility_matrix(self):
        assert LockMode.SHARED.compatible_with(LockMode.SHARED)
        assert not LockMode.SHARED.compatible_with(LockMode.EXCLUSIVE)
        assert not LockMode.EXCLUSIVE.compatible_with(LockMode.EXCLUSIVE)


# ---------------------------------------------------------------------------
# Waiting mode (per-object FIFO queues, PR 3)
# ---------------------------------------------------------------------------

import threading
import time

from repro.errors import DeadlockError


def _spin_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.001)


class TestWaiting:
    def test_waiter_granted_on_release(self, lm):
        lm.acquire(1, "pmv", LockMode.EXCLUSIVE, wait=False)
        granted = []

        def waiter():
            lm.acquire(2, "pmv", LockMode.SHARED, wait=True, timeout=5.0)
            granted.append(True)

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        _spin_until(lambda: lm.stats()["queued"] == 1)
        assert not granted  # still parked while the X is held
        lm.release(1, "pmv")
        thread.join(5.0)
        assert granted
        assert lm.holds(2, "pmv", LockMode.SHARED)

    def test_shared_batch_granted_together(self, lm):
        lm.acquire(1, "pmv", LockMode.EXCLUSIVE, wait=False)
        granted = []

        def reader(txn_id):
            lm.acquire(txn_id, "pmv", LockMode.SHARED, wait=True, timeout=5.0)
            granted.append(txn_id)

        threads = [
            threading.Thread(target=reader, args=(t,), daemon=True) for t in (2, 3)
        ]
        for thread in threads:
            thread.start()
        _spin_until(lambda: lm.stats()["queued"] == 2)
        lm.release(1, "pmv")
        for thread in threads:
            thread.join(5.0)
        assert sorted(granted) == [2, 3]
        shared, exclusive = lm.holders("pmv")
        assert shared == {2, 3} and exclusive is None

    def test_fresh_shared_queues_behind_waiting_exclusive(self, lm):
        # Fairness: once an X waits, later S requests must not starve it.
        lm.acquire(1, "pmv", LockMode.SHARED, wait=False)
        thread = threading.Thread(
            target=lambda: lm.acquire(
                2, "pmv", LockMode.EXCLUSIVE, wait=True, timeout=5.0
            ),
            daemon=True,
        )
        thread.start()
        _spin_until(lambda: lm.stats()["queued"] == 1)
        with pytest.raises(LockError):
            lm.acquire(3, "pmv", LockMode.SHARED, wait=False)  # no-wait: denied, not granted
        lm.release(1, "pmv")
        thread.join(5.0)
        assert lm.holds(2, "pmv", LockMode.EXCLUSIVE)

    def test_sole_holder_upgrade_jumps_queue(self, lm):
        lm.acquire(1, "pmv", LockMode.SHARED, wait=False)
        thread = threading.Thread(
            target=lambda: lm.acquire(
                2, "pmv", LockMode.EXCLUSIVE, wait=True, timeout=5.0
            ),
            daemon=True,
        )
        thread.start()
        _spin_until(lambda: lm.stats()["queued"] == 1)
        # The sole S holder may upgrade in place even with a queue.
        lm.acquire(1, "pmv", LockMode.EXCLUSIVE, wait=False)
        assert lm.holds(1, "pmv", LockMode.EXCLUSIVE)
        lm.release_all(1)
        thread.join(5.0)
        assert lm.holds(2, "pmv", LockMode.EXCLUSIVE)

    def test_timeout_raises_deadlock_error(self, lm):
        lm.acquire(1, "pmv", LockMode.EXCLUSIVE, wait=False)
        started = time.monotonic()
        with pytest.raises(DeadlockError):
            lm.acquire(2, "pmv", LockMode.SHARED, wait=True, timeout=0.05)
        assert time.monotonic() - started < 2.0
        stats = lm.stats()
        assert stats["timeouts"] == 1
        assert stats["queued"] == 0  # the timed-out waiter was withdrawn

    def test_timed_out_waiter_does_not_block_later_grants(self, lm):
        lm.acquire(1, "pmv", LockMode.SHARED, wait=False)
        with pytest.raises(DeadlockError):
            lm.acquire(2, "pmv", LockMode.EXCLUSIVE, wait=True, timeout=0.05)
        # The withdrawn X waiter must not keep gating fresh S requests.
        lm.acquire(3, "pmv", LockMode.SHARED, wait=False)
        assert lm.holds(3, "pmv", LockMode.SHARED)


class TestStatsAndReaping:
    def test_state_reaped_when_object_free(self, lm):
        lm.acquire(1, "a", LockMode.SHARED, wait=False)
        lm.acquire(1, "b", LockMode.EXCLUSIVE, wait=False)
        assert lm.stats()["active_objects"] == 2
        lm.release_all(1)
        assert lm.stats()["active_objects"] == 0

    def test_stats_counters(self, lm):
        lm.acquire(1, "a", LockMode.SHARED, wait=False)
        with pytest.raises(LockError):
            lm.acquire(2, "a", LockMode.EXCLUSIVE, wait=False)
        stats = lm.stats()
        assert stats["grants"] == 1
        assert stats["denials"] == 1
        assert stats["waits"] == 0
        assert stats["timeouts"] == 0
