"""Threads for the drills that run concurrent clients and writers.

One harness starts them, records whatever a body raises, and joins them
against one deadline; one writer body churns a private id range of
``r`` (the stress and overload drills' writers).
"""

from __future__ import annotations

import random
import threading
import time
import traceback
from pathlib import Path

from repro.errors import LockError

__all__ = ["JOIN_TIMEOUT", "Workers"]

JOIN_TIMEOUT = 120.0


class Workers:
    """What one run's threads share: the answers they recorded, what
    they died of, and which writer each statement maintenance refused
    belonged to (appends, so concurrent writers lose no count)."""

    def __init__(self) -> None:
        self.answers: list = []
        self.errors: list[str] = []
        self.lock_aborts: list[str] = []

    def run(self, bodies, scheduler=None, while_running=None) -> list[str]:
        """Run every ``(name, body, args)`` on its own thread — managed by
        ``scheduler`` when one is given — call ``while_running(threads)``
        once all have started, and join them.  A body that raises, or is
        still running :data:`JOIN_TIMEOUT` seconds later, is an error;
        returns the names of the threads still running."""

        def guarded(name, body, args) -> None:
            try:
                body(*args)
            except Exception as exc:  # recorded: fails the drill
                where = traceback.extract_tb(exc.__traceback__)[-1]
                self.errors.append(
                    f"thread {name} died: {type(exc).__name__}: {exc} "
                    f"({Path(where.filename).name}:{where.lineno})"
                )

        if scheduler is None:
            threads = [
                threading.Thread(target=guarded, args=body, name=body[0], daemon=True)
                for body in bodies
            ]
        else:
            threads = [scheduler.spawn(body[0], guarded, *body) for body in bodies]
        for thread in threads:
            thread.start()
        if scheduler is not None:
            scheduler.launch()
        if while_running is not None:
            while_running(threads)
        deadline = time.monotonic() + JOIN_TIMEOUT
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        hung = [body[0] for body, thread in zip(bodies, threads) if thread.is_alive()]
        if hung:
            self.errors.append(f"hang: {','.join(hung)} alive after {JOIN_TIMEOUT:.0f}s")
        return hung

    def writer(self, database, seed: int, index: int, ops: int,
               inserts: float = 0.45, deletes: float = 0.75) -> None:
        """Seeded DML over writer ``index``'s OWN rows of ``r``: a roll
        below ``inserts`` inserts, below ``deletes`` deletes one of its
        rows, above updates one.

        Writers never race each other for a logical row — the contention
        under test is reader/maintainer locking, not lost-update
        semantics the engine does not claim.  A :class:`LockError` is
        maintenance giving up on its X lock: the statement aborted
        cleanly, and is counted.
        """
        rng = random.Random(seed * 20_011 + 307 * index)
        next_id = 100_000 * (index + 1)
        owned: dict[int, object] = {}  # id -> current RowId
        for _ in range(ops):
            roll = rng.random()
            try:
                if roll < inserts or not owned:
                    values = (next_id, rng.randrange(6), rng.randrange(4))
                    owned[next_id] = database.insert(
                        "r", values + (f"w{index}a{next_id}", "fresh")
                    )
                    next_id += 1
                elif roll < deletes:
                    database.delete("r", owned.pop(rng.choice(sorted(owned))))
                else:
                    victim = rng.choice(sorted(owned))
                    if rng.random() < 0.7:
                        changes = {"a": f"w{index}r{rng.randrange(999)}"}  # in Ls': X lock
                    else:
                        changes = {"note": f"n{rng.randrange(999)}"}  # maintenance-free
                    owned[victim] = database.update("r", owned[victim], **changes)[2]
            except LockError:
                self.lock_aborts.append(f"w{index}")
