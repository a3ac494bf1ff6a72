"""Deterministic interleaving scheduler for concurrency testing.

Python threads interleave wherever the OS pleases, so a protocol race
observed once may never reproduce.  This module pins the interleaving
down the same way :mod:`repro.faults.plan` pins crashes down: a seeded
schedule driven through explicit seams.

The model is **cooperative single-token scheduling**: of the registered
worker threads, exactly one — the token holder — runs at a time; all
others are parked on per-thread events.  At every *switch point* (the
lock manager's acquire entry, the executor's O2/O3 boundaries) the
running thread offers the token back, and a ``random.Random(seed)``
picks the successor from the *runnable* set.  Because the lock manager
reports blocking and granting synchronously (``block``/``unblock``
happen inside the releaser, before the waiter's event fires), the
runnable set at each decision point is a pure function of the seed and
the workload — NOT of OS timing.  Replaying the same seed replays the
same interleaving, decision for decision; the recorded ``trace`` makes
that checkable.

The scheduler deliberately has no opinion about real time: a thread
that blocks on a lock still arms its real timeout, so a schedule that
manufactures a genuine deadlock (e.g. a dual S→X upgrade) is resolved
by the lock manager's :class:`~repro.errors.DeadlockError` exactly as
in production.  The window between a timeout firing and the timed-out
thread re-entering the runnable set is the one place wall-clock can
leak in — bounded workloads that do not time out are fully
deterministic.

Wiring: ``Database.install_scheduler(sched)`` shares the scheduler
with the lock manager; :meth:`InterleavingScheduler.spawn` wraps a
worker callable so registration order (and thus thread identity in the
schedule) is the driver's explicit choice, never thread-start timing.
"""

from __future__ import annotations

import random
import threading
from typing import Callable

__all__ = ["InterleavingScheduler", "SchedDeadlock"]


class SchedDeadlock(RuntimeError):
    """Every registered thread is blocked and none can be granted."""


class _Worker:
    """Scheduler-side state of one registered thread."""

    __slots__ = ("name", "index", "event", "state", "ident")

    def __init__(self, name: str, index: int) -> None:
        self.name = name
        self.index = index
        self.event = threading.Event()
        self.state = "runnable"  # runnable | blocked | finished
        self.ident: int | None = None  # bound when the thread starts


class InterleavingScheduler:
    """Seeded cooperative scheduler over explicitly registered threads.

    Usage::

        sched = InterleavingScheduler(seed=7)
        db.install_scheduler(sched)
        threads = [sched.spawn(f"w{i}", work, i) for i in range(4)]
        for t in threads: t.start()
        sched.launch()
        for t in threads: t.join()
        db.install_scheduler(None)

    Threads the scheduler has never registered (the pytest main thread,
    unrelated pools) pass through every seam as no-ops, so installing a
    scheduler never perturbs unmanaged code.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self._mutex = threading.Lock()
        self._workers: list[_Worker] = []
        self._by_name: dict[str, _Worker] = {}
        self._by_ident: dict[int, _Worker] = {}
        self._current: _Worker | None = None
        self._launched = False
        self.trace: list[str] = []
        self.decisions = 0
        self.deadlocks_seen = 0

    # -- driver API ---------------------------------------------------------

    def register(self, name: str) -> None:
        """Register a worker under a stable name (driver thread only).

        Registration order — not thread-start timing — defines the
        index the seeded RNG sees, which is what makes two runs of the
        same seed pick the same threads.
        """
        with self._mutex:
            if self._launched:
                raise RuntimeError("cannot register after launch()")
            if name in self._by_name:
                raise ValueError(f"duplicate scheduler thread name {name!r}")
            worker = _Worker(name, len(self._workers))
            self._workers.append(worker)
            self._by_name[name] = worker

    def spawn(
        self, name: str, target: Callable, *args, **kwargs
    ) -> threading.Thread:
        """Register ``name`` and build its (unstarted) worker thread.

        The wrapper parks at entry until the scheduler grants the first
        token and always announces completion, even on exceptions — a
        crashed worker must leave the schedule, not wedge it.
        """
        self.register(name)

        def run() -> None:
            self._enter(name)
            try:
                target(*args, **kwargs)
            finally:
                self._finish()

        return threading.Thread(target=run, name=f"sched-{name}", daemon=True)

    def launch(self) -> None:
        """Grant the first token (after every worker thread started)."""
        with self._mutex:
            self._launched = True
            self._grant_next("launch")

    # -- seams called by managed threads ------------------------------------

    def switch(self, site: str) -> None:
        """A potential preemption point: offer the token back.

        The seeded RNG picks the next runnable worker (possibly the
        caller again).  No-op for unmanaged threads.
        """
        me = self._by_ident.get(threading.get_ident())
        if me is None:
            return
        with self._mutex:
            # self is runnable and may be re-chosen: that is the
            # "no switch" outcome, with the same probability weight as
            # any other successor.
            chosen = self._choose(site)
            if chosen is me:
                return
            self._current = chosen
            chosen.event.set()
        self._park(me)

    def block(self, site: str) -> None:
        """The caller is about to wait (lock queue): leave the runnable
        set and pass the token on.  Paired with :meth:`resume`."""
        me = self._by_ident.get(threading.get_ident())
        if me is None:
            return
        with self._mutex:
            me.state = "blocked"
            self._grant_next(site)

    def resume(self) -> None:
        """The caller's wait ended (granted or timed out): re-enter the
        schedule, taking the token when it is free or parking until
        granted."""
        me = self._by_ident.get(threading.get_ident())
        if me is None:
            return
        with self._mutex:
            me.state = "runnable"
            if self._current is None:
                # Token was abandoned (everyone blocked): seize it.
                self._current = me
                return
            if self._current is me:
                # A releaser already granted this thread the token
                # (unblock -> next decision picked it).  Consume the
                # pending grant signal so a later park does not see a
                # stale event and run without the token.
                me.event.clear()
                return
        self._park(me)

    def unblock(self, ident: int) -> None:
        """A releaser granted ``ident``'s lock request: mark it runnable
        *synchronously in the releaser* so the runnable set at the next
        decision point does not depend on when the OS wakes the waiter."""
        worker = self._by_ident.get(ident)
        if worker is None:
            return
        with self._mutex:
            if worker.state == "blocked":
                worker.state = "runnable"

    # -- worker lifecycle (called from inside spawn's wrapper) --------------

    def _enter(self, name: str) -> None:
        worker = self._by_name[name]
        worker.ident = threading.get_ident()
        self._by_ident[worker.ident] = worker
        self._park(worker)

    def _finish(self) -> None:
        me = self._by_ident.get(threading.get_ident())
        if me is None:
            return
        with self._mutex:
            me.state = "finished"
            if self._current is me:
                self._grant_next("finish")

    # -- internals ----------------------------------------------------------

    def _park(self, worker: _Worker) -> None:
        worker.event.wait()
        worker.event.clear()

    def _runnable(self) -> list[_Worker]:
        return [w for w in self._workers if w.state == "runnable"]

    def _choose(self, site: str) -> _Worker:
        """Pick the next worker (mutex held, caller still runnable)."""
        candidates = self._runnable()
        chosen = candidates[self._rng.randrange(len(candidates))]
        self.decisions += 1
        self.trace.append(f"{self.decisions}:{site}->{chosen.name}")
        return chosen

    def _grant_next(self, site: str) -> None:
        """Hand the token to a runnable worker, or abandon it (mutex
        held; the caller is no longer runnable)."""
        candidates = self._runnable()
        if not candidates:
            self._current = None
            if any(w.state == "blocked" for w in self._workers):
                # Everyone still alive is waiting on a lock.  Real lock
                # timeouts (the deadlock-resolution policy) will fire
                # and the timed-out thread's resume() re-seizes the
                # token; record that the schedule hit this state.
                self.deadlocks_seen += 1
                self.trace.append(f"{self.decisions}:{site}->DEADLOCK")
            return
        chosen = candidates[self._rng.randrange(len(candidates))]
        self.decisions += 1
        self.trace.append(f"{self.decisions}:{site}->{chosen.name}")
        self._current = chosen
        chosen.event.set()
