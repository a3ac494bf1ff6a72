"""Unit tests for transactions and change capture."""

import pytest

from repro.engine.locks import LockManager
from repro.engine.row import Row
from repro.engine.schema import Column, Schema
from repro.engine.datatypes import INTEGER
from repro.engine.transactions import Change, ChangeKind, Transaction, TxnStatus
from repro.errors import LockError, TransactionError


@pytest.fixture
def lm():
    return LockManager()


@pytest.fixture
def row():
    return Row((1,), Schema([Column("a", INTEGER)], relation_name="t"))


class TestLifecycle:
    def test_commit_releases_locks(self, lm):
        txn = Transaction(lm)
        txn.lock_exclusive("pmv", wait=False)
        txn.commit()
        assert txn.status is TxnStatus.COMMITTED
        Transaction(lm).lock_exclusive("pmv", wait=False)  # lock is free again

    def test_abort_releases_locks(self, lm):
        txn = Transaction(lm)
        txn.lock_shared("pmv", wait=False)
        txn.abort()
        Transaction(lm).lock_exclusive("pmv", wait=False)

    def test_use_after_commit_raises(self, lm):
        txn = Transaction(lm)
        txn.commit()
        with pytest.raises(TransactionError):
            txn.lock_shared("pmv", wait=False)
        with pytest.raises(TransactionError):
            txn.commit()

    def test_context_manager_commits(self, lm):
        with Transaction(lm) as txn:
            txn.lock_shared("pmv", wait=False)
        assert txn.status is TxnStatus.COMMITTED

    def test_context_manager_aborts_on_error(self, lm):
        with pytest.raises(RuntimeError):
            with Transaction(lm) as txn:
                txn.lock_exclusive("pmv", wait=False)
                raise RuntimeError("boom")
        assert txn.status is TxnStatus.ABORTED
        Transaction(lm).lock_exclusive("pmv", wait=False)

    def test_unique_ids(self, lm):
        assert Transaction(lm).txn_id != Transaction(lm).txn_id


class TestReadOnly:
    def test_read_only_cannot_lock_exclusive(self, lm):
        txn = Transaction(lm, read_only=True)
        with pytest.raises(TransactionError):
            txn.lock_exclusive("pmv", wait=False)

    def test_read_only_cannot_record_changes(self, lm, row):
        txn = Transaction(lm, read_only=True)
        with pytest.raises(TransactionError):
            txn.record_change(Change(ChangeKind.INSERT, "t", new_row=row))

    def test_read_only_may_lock_shared(self, lm):
        Transaction(lm, read_only=True).lock_shared("pmv", wait=False)


class TestChanges:
    def test_change_validation(self, row):
        with pytest.raises(TransactionError):
            Change(ChangeKind.INSERT, "t")
        with pytest.raises(TransactionError):
            Change(ChangeKind.DELETE, "t")
        with pytest.raises(TransactionError):
            Change(ChangeKind.UPDATE, "t", old_row=row)

    def test_record_change(self, lm, row):
        txn = Transaction(lm)
        change = Change(ChangeKind.DELETE, "t", old_row=row)
        txn.record_change(change)
        assert txn.changes == [change]

    def test_lock_conflicts_between_txns(self, lm):
        reader = Transaction(lm)
        reader.lock_shared("pmv", wait=False)
        writer = Transaction(lm)
        with pytest.raises(LockError):
            writer.lock_exclusive("pmv", wait=False)
        reader.commit()
        writer.lock_exclusive("pmv", wait=False)
