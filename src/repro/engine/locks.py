"""Lock manager: shared/exclusive locks on named objects.

Implements the locking protocol of Section 3.6 — a query holds an S
lock on the PMV from Operation O2 through Operation O3, and any
transaction that would change the PMV needs an X lock, so the query's
partial results cannot be invalidated mid-flight — for a genuinely
concurrent engine:

- ``acquire(..., wait=False)`` never blocks: a conflicting request
  raises :class:`LockError` immediately.  It is for callers that must
  not park — maintenance with the circuit breaker open, or already
  inside the statement latch.
- ``acquire(..., wait=True, timeout=...)`` queues the request on the
  object's FIFO wait queue and blocks the calling thread until a
  releasing holder grants it.  Grants are made *by the releaser* in
  strict queue order (consecutive S requests are granted as a batch),
  so writers cannot be starved by a stream of late readers and the
  grant order is deterministic.  A request that waits longer than
  ``timeout`` is abandoned with :class:`DeadlockError` — timeout is
  the deadlock-resolution policy, exactly like a real lock manager's
  ``lock_timeout``.

Fairness rules worth knowing:

- a *new* S request queues behind any waiting X request (no reader
  barging past a writer);
- a sole S holder upgrading to X is granted immediately, jumping the
  queue (the standard upgrade priority — queuing it behind a waiting X
  would deadlock instantly);
- two S holders upgrading simultaneously deadlock by construction and
  are both resolved by their timeouts.

The manager is fully thread-safe; every public method may be called
from any thread.  An optional cooperative scheduler (see
:mod:`repro.faults.sched`) can be installed as ``sched`` to make
multi-threaded interleavings deterministic: the manager reports
blocking waits and grant-time wakeups to it synchronously, so the set
of runnable threads the scheduler chooses from never depends on OS
timing.
"""

from __future__ import annotations

import enum
import threading
from collections import deque
from dataclasses import dataclass, field

from repro.errors import DeadlockError, LockError

__all__ = ["LockMode", "LockManager", "DEFAULT_LOCK_TIMEOUT"]

DEFAULT_LOCK_TIMEOUT = 5.0
"""Fallback wait bound for ``wait=True`` requests with no explicit
timeout — long enough for any real holder to finish, short enough that
a true deadlock resolves without hanging the suite."""


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"

    def compatible_with(self, other: "LockMode") -> bool:
        return self is LockMode.SHARED and other is LockMode.SHARED


class _Waiter:
    """One queued lock request, granted by a releasing holder."""

    __slots__ = ("txn_id", "mode", "event", "granted", "thread_ident")

    def __init__(self, txn_id: int, mode: LockMode) -> None:
        self.txn_id = txn_id
        self.mode = mode
        self.event = threading.Event()
        self.granted = False
        self.thread_ident = threading.get_ident()


@dataclass
class _LockState:
    """Holders and FIFO wait queue of one lockable object."""

    shared: set[int] = field(default_factory=set)
    exclusive: int | None = None
    waiters: deque = field(default_factory=deque)

    def is_free(self) -> bool:
        return not self.shared and self.exclusive is None and not self.waiters


class LockManager:
    """Grants and releases S/X locks keyed by object name."""

    def __init__(self, default_timeout: float = DEFAULT_LOCK_TIMEOUT) -> None:
        self._locks: dict[str, _LockState] = {}
        self._mutex = threading.Lock()
        self.default_timeout = default_timeout
        self.grants = 0
        self.denials = 0
        self.waits = 0
        self.timeouts = 0
        # Optional cooperative interleaving scheduler (repro.faults.sched).
        # None (and zero-cost) in production.
        self.sched = None

    # -- acquisition --------------------------------------------------------

    def acquire(
        self,
        txn_id: int,
        obj: str,
        mode: LockMode,
        wait: bool,
        timeout: float | None = None,
    ) -> None:
        """Grant ``mode`` on ``obj`` to ``txn_id``.

        Re-acquisition is idempotent; an S holder that is the *sole*
        holder may upgrade to X.  On conflict: with ``wait=False`` a
        :class:`LockError` is raised immediately; with ``wait=True``
        the request joins the object's FIFO queue and blocks until
        granted, raising :class:`DeadlockError` after ``timeout``
        seconds (``default_timeout`` when ``None``).
        """
        sched = self.sched
        if sched is not None:
            sched.switch(f"lock.acquire:{obj}:{mode.value}")
        with self._mutex:
            state = self._locks.get(obj)
            if state is None:
                state = self._locks[obj] = _LockState()
            if self._grantable(state, txn_id, mode):
                self._apply_grant(state, txn_id, mode)
                self.grants += 1
                return
            if not wait:
                self.denials += 1
                message = self._denial_message(state, txn_id, obj, mode)
                self._reap(obj, state)
                raise LockError(message)
            waiter = _Waiter(txn_id, mode)
            if mode is LockMode.EXCLUSIVE and txn_id in state.shared:
                # Upgrade requests go to the front: they only wait on
                # the *other current S holders*, never on queued work.
                state.waiters.appendleft(waiter)
            else:
                state.waiters.append(waiter)
            self.waits += 1
        if timeout is None:
            timeout = self.default_timeout
        if sched is not None:
            sched.block(f"lock.wait:{obj}:{mode.value}")
        try:
            waiter.event.wait(timeout)
        finally:
            if sched is not None:
                sched.resume()
        newly: list[_Waiter] = []
        with self._mutex:
            if waiter.granted:
                return
            # Timed out: withdraw the request; the queue head behind it
            # may have become grantable.
            state = self._locks.get(obj)
            message = f"txn {txn_id}: {mode.value}({obj}) timed out after {timeout}s"
            if state is not None:
                try:
                    state.waiters.remove(waiter)
                except ValueError:
                    pass
                if waiter.granted:  # granted in the race window
                    return
                message = self._denial_message(state, txn_id, obj, mode) + (
                    f" (waited {timeout}s)"
                )
                newly = self._promote(state)
                self._reap(obj, state)
            self.timeouts += 1
            self.denials += 1
        self._wake(newly)
        raise DeadlockError(message)

    def release(self, txn_id: int, obj: str) -> None:
        """Release whatever ``txn_id`` holds on ``obj`` (no-op if
        nothing), granting queued requests that become compatible."""
        with self._mutex:
            state = self._locks.get(obj)
            if state is None:
                return
            state.shared.discard(txn_id)
            if state.exclusive == txn_id:
                state.exclusive = None
            newly = self._promote(state)
            self._reap(obj, state)
        self._wake(newly)

    def release_all(self, txn_id: int) -> None:
        """Release every lock held by ``txn_id`` (end of transaction)."""
        with self._mutex:
            held = [
                obj
                for obj, state in self._locks.items()
                if txn_id in state.shared or state.exclusive == txn_id
            ]
        for obj in held:
            self.release(txn_id, obj)

    # -- grant logic (all called under the mutex) ---------------------------

    def _grantable(self, state: _LockState, txn_id: int, mode: LockMode) -> bool:
        if mode is LockMode.SHARED:
            if txn_id in state.shared or state.exclusive == txn_id:
                return True  # idempotent re-acquisition (X subsumes S)
            if state.exclusive is not None:
                return False
            # FIFO fairness: a fresh S request must not barge past a
            # waiting X request, or writers starve under read traffic.
            return not any(
                waiter.mode is LockMode.EXCLUSIVE for waiter in state.waiters
            )
        # Exclusive request.
        if state.exclusive == txn_id:
            return True
        if state.exclusive is not None:
            return False
        others = state.shared - {txn_id}
        if others:
            return False
        if txn_id in state.shared:
            return True  # sole-holder upgrade jumps the queue
        return not state.waiters

    @staticmethod
    def _apply_grant(state: _LockState, txn_id: int, mode: LockMode) -> None:
        if mode is LockMode.SHARED:
            if state.exclusive != txn_id:
                state.shared.add(txn_id)
            return
        state.shared.discard(txn_id)  # upgrade folds the S into the X
        state.exclusive = txn_id

    def _promote(self, state: _LockState) -> list[_Waiter]:
        """Grant from the queue front in FIFO order.

        Consecutive compatible S requests are granted as one batch; an
        X request is granted alone and stops the sweep.
        """
        granted: list[_Waiter] = []
        while state.waiters:
            head = state.waiters[0]
            if state.exclusive is not None and state.exclusive != head.txn_id:
                break
            if head.mode is LockMode.SHARED:
                state.shared.add(head.txn_id)
            else:
                if state.shared - {head.txn_id}:
                    break
                state.shared.discard(head.txn_id)
                state.exclusive = head.txn_id
            state.waiters.popleft()
            head.granted = True
            self.grants += 1
            granted.append(head)
            if head.mode is LockMode.EXCLUSIVE:
                break
        return granted

    def _wake(self, granted: list[_Waiter]) -> None:
        """Wake granted waiters, informing the scheduler *before* the
        event fires so its runnable set is updated synchronously."""
        sched = self.sched
        for waiter in granted:
            if sched is not None:
                sched.unblock(waiter.thread_ident)
            waiter.event.set()

    def _reap(self, obj: str, state: _LockState) -> None:
        """Drop the state of an object nobody holds or waits on, so the
        lock table does not accumulate dead entries."""
        if state.is_free():
            self._locks.pop(obj, None)

    @staticmethod
    def _denial_message(
        state: _LockState, txn_id: int, obj: str, mode: LockMode
    ) -> str:
        if state.exclusive is not None and state.exclusive != txn_id:
            return (
                f"txn {txn_id}: {mode.value}({obj}) denied, "
                f"X held by txn {state.exclusive}"
            )
        others = sorted(state.shared - {txn_id})
        if others:
            return f"txn {txn_id}: {mode.value}({obj}) denied, S held by txns {others}"
        return f"txn {txn_id}: {mode.value}({obj}) denied, queued requests ahead"

    # -- inspection ---------------------------------------------------------

    def holds(self, txn_id: int, obj: str, mode: LockMode) -> bool:
        with self._mutex:
            state = self._locks.get(obj)
            if state is None:
                return False
            if mode is LockMode.SHARED:
                # An X lock subsumes S.
                return txn_id in state.shared or state.exclusive == txn_id
            return state.exclusive == txn_id

    def holders(self, obj: str) -> tuple[set[int], int | None]:
        """``(shared_holders, exclusive_holder)`` for ``obj``."""
        with self._mutex:
            state = self._locks.get(obj)
            if state is None:
                return set(), None
            return set(state.shared), state.exclusive

    def stats(self) -> dict[str, int]:
        """Counter snapshot for the stress driver and tests.

        ``active_objects``/``queued`` describe the current lock table;
        the rest are lifetime counters.
        """
        with self._mutex:
            return {
                "grants": self.grants,
                "denials": self.denials,
                "waits": self.waits,
                "timeouts": self.timeouts,
                "active_objects": len(self._locks),
                "queued": sum(len(s.waiters) for s in self._locks.values()),
            }
