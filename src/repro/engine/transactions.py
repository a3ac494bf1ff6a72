"""Transactions.

A :class:`Transaction` scopes a unit of work: it owns locks (released
at commit/abort, i.e. strict two-phase locking) and records the base-
relation changes it made so the PMV maintenance layer can react to
them.  Transactions may be created from any thread (id allocation is
atomic); a single transaction is still owned by one thread at a time —
concurrency control between transactions is the lock manager's job.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.engine.locks import LockManager, LockMode
from repro.engine.row import Row
from repro.errors import TransactionError

__all__ = ["Transaction", "TxnStatus", "ChangeKind", "Change"]


class TxnStatus(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class ChangeKind(enum.Enum):
    INSERT = "insert"
    DELETE = "delete"
    UPDATE = "update"


@dataclass(frozen=True)
class Change:
    """One base-relation change: the paper's ΔRi element.

    ``old_row`` is set for deletes/updates, ``new_row`` for
    inserts/updates.  ``prepared`` carries each PMV maintainer's
    prepare-time decision — its route (eager or deferred to the CDC
    drain) and the X-lock transaction it opened — to the change or
    abort of the same statement, and on to the drain.
    """

    kind: ChangeKind
    relation: str
    old_row: Row | None = None
    new_row: Row | None = None
    prepared: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind is ChangeKind.INSERT and self.new_row is None:
            raise TransactionError("insert change needs new_row")
        if self.kind is ChangeKind.DELETE and self.old_row is None:
            raise TransactionError("delete change needs old_row")
        if self.kind is ChangeKind.UPDATE and (self.old_row is None or self.new_row is None):
            raise TransactionError("update change needs old_row and new_row")


class Transaction:
    """A unit of work holding locks and capturing base-relation changes."""

    # itertools.count.__next__ is atomic under the GIL, so concurrent
    # begin() calls never hand out duplicate ids.
    _ids = itertools.count(1)

    def __init__(
        self,
        lock_manager: LockManager,
        read_only: bool = False,
        fault_hook=None,
    ) -> None:
        self.txn_id = next(Transaction._ids)
        self._locks = lock_manager
        self.read_only = read_only
        self.status = TxnStatus.ACTIVE
        self.changes: list[Change] = []
        # Optional fault-injection hook (repro.faults): fired at the
        # start of commit/abort, i.e. before the status flip and lock
        # release, so an injected failure models a crash or error while
        # the transaction is still in flight.  None in production.
        self._fault_hook = fault_hook

    # -- lifecycle ---------------------------------------------------------------

    def _check_active(self) -> None:
        if self.status is not TxnStatus.ACTIVE:
            raise TransactionError(f"txn {self.txn_id} is {self.status.value}")

    def commit(self) -> None:
        self._check_active()
        if self._fault_hook is not None:
            self._fault_hook("txn.commit")
        self.status = TxnStatus.COMMITTED
        self._locks.release_all(self.txn_id)

    def abort(self) -> None:
        self._check_active()
        if self._fault_hook is not None:
            self._fault_hook("txn.abort")
        self.status = TxnStatus.ABORTED
        self._locks.release_all(self.txn_id)

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if self.status is TxnStatus.ACTIVE:
            if exc_type is None:
                self.commit()
            else:
                self.abort()

    # -- locking -------------------------------------------------------------------

    def lock_shared(
        self, obj: str, wait: bool, timeout: float | None = None
    ) -> None:
        self._check_active()
        self._locks.acquire(self.txn_id, obj, LockMode.SHARED, wait=wait, timeout=timeout)

    def lock_exclusive(
        self, obj: str, wait: bool, timeout: float | None = None
    ) -> None:
        self._check_active()
        if self.read_only:
            raise TransactionError(
                f"read-only txn {self.txn_id} cannot take X({obj})"
            )
        self._locks.acquire(
            self.txn_id, obj, LockMode.EXCLUSIVE, wait=wait, timeout=timeout
        )

    def holds_shared(self, obj: str) -> bool:
        return self._locks.holds(self.txn_id, obj, LockMode.SHARED)

    # -- change capture --------------------------------------------------------------

    def record_change(self, change: Change) -> None:
        self._check_active()
        if self.read_only:
            raise TransactionError(f"read-only txn {self.txn_id} cannot write")
        self.changes.append(change)
