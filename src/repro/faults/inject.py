"""Fault injection: wiring a :class:`~repro.faults.plan.FaultPlan`
into the engine.

The pieces:

- :class:`SimulatedCrash` — the "process died here" signal.  It
  derives from :class:`BaseException` (like ``KeyboardInterrupt``) so
  no ``except Exception`` cleanup handler in the engine can intercept
  it: a crash does not get to run abort paths, which is exactly the
  property the recovery code must survive.
- :class:`FaultInjector` — counts arrivals at each fault site and
  fires the plan's scheduled faults.  After any crash-mode fault it
  disarms, so ``finally`` blocks running during the unwind cannot
  trigger secondary faults.
- :class:`FaultyWAL` — a :class:`~repro.engine.wal.WriteAheadLog`
  whose ``append`` can crash before the write, crash after it, or tear
  the record partway (a half-written final line with no newline —
  the torn tail :meth:`WriteAheadLog.load` must tolerate).
- :class:`FaultyDiskManager` — a disk whose page transfers can fail
  (``ERROR``) or tear a page image and crash (``TORN``).
- :func:`build_faulty_database` — a :class:`Database` with all of the
  above installed plus the ``fault_hook`` sites in transactions and
  PMV maintenance.
"""

from __future__ import annotations

import os

from repro.engine.database import Database
from repro.engine.disk import DiskManager
from repro.engine.page import Page
from repro.engine.wal import LogKind, LogRecord, WriteAheadLog
from repro.errors import FaultInjectionError
from repro.faults.plan import NETWORK_MODES, FaultMode, FaultPlan, FaultSpec

__all__ = [
    "SimulatedCrash",
    "FaultInjector",
    "FaultyWAL",
    "FaultyDiskManager",
    "build_faulty_database",
]


class SimulatedCrash(BaseException):
    """The simulated process death.

    Deliberately NOT a :class:`~repro.errors.ReproError` (nor even an
    :class:`Exception`): engine code that catches ``Exception`` to
    abort a statement cleanly must not be able to "handle" a crash.
    The torture driver catches it at the very top, throws the live
    database away, and recovers from the on-disk log — the same thing
    an operator's restart does.
    """

    def __init__(self, spec: FaultSpec) -> None:
        super().__init__(f"simulated crash at {spec.describe()}")
        self.spec = spec


class FaultInjector:
    """Counts fault-site arrivals and fires the plan's faults.

    One injector instance is threaded through a single simulated
    process lifetime.  ``counts`` doubles as the enumeration output:
    run a workload with an empty plan and read how many fault points
    each site offers.
    """

    def __init__(self, plan: FaultPlan | None = None) -> None:
        self.plan = plan if plan is not None else FaultPlan.none()
        self.counts: dict[str, int] = {}
        self.fired: list[FaultSpec] = []
        self.crashed = False

    def check(self, site: str) -> FaultSpec | None:
        """Count one arrival at ``site``; return the scheduled fault if
        this arrival matches one, for the caller to interpret (sites
        with torn semantics need to do their own partial write)."""
        if self.crashed:
            # The process is already dying; ``finally`` blocks running
            # during the unwind must not trigger secondary faults.
            return None
        arrival = self.counts.get(site, 0) + 1
        self.counts[site] = arrival
        spec = self.plan.match(site, arrival)
        if spec is not None:
            self.fired.append(spec)
            if spec.mode is not FaultMode.ERROR and spec.mode not in NETWORK_MODES:
                # Network modes model a lossy link, not a dying
                # process — the injector stays armed after them.
                self.crashed = True
        return spec

    def fire(self, site: str) -> None:
        """Hook form of :meth:`check`: raise the matched fault.

        This is the callable installed as ``Database.fault_hook`` —
        generic sites (transactions, PMV maintenance) have no partial
        state to tear, so ERROR raises and every crash mode simply
        crashes.
        """
        spec = self.check(site)
        if spec is None:
            return
        if spec.mode is FaultMode.ERROR:
            raise FaultInjectionError(
                f"injected fault at {spec.describe()}",
                site=spec.site,
                occurrence=spec.occurrence,
            )
        raise SimulatedCrash(spec)


class FaultyWAL(WriteAheadLog):
    """A write-ahead log with an injectable ``append``/``checkpoint``.

    The three crash windows of one append:

    - ``CRASH_BEFORE`` — nothing reached the file: the statement never
      happened;
    - ``TORN`` — the first half of the record's frame reached the file
      (no newline, no complete fsync): recovery must treat it as "never
      happened" and :meth:`WriteAheadLog.repair` must cut it off;
    - ``CRASH_AFTER`` — the record is durable but the statement was
      never acknowledged: recovery must replay it.
    """

    def __init__(self, injector: FaultInjector, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.injector = injector

    def append(self, kind: LogKind, payload: dict, change=None) -> LogRecord:
        spec = self.injector.check("wal.append")
        if spec is None:
            return super().append(kind, payload, change)
        if spec.mode is FaultMode.CRASH_BEFORE:
            raise SimulatedCrash(spec)
        if spec.mode is FaultMode.TORN:
            # Write a strict prefix of the line — the crash happened
            # mid-write, so neither the full record nor its newline is
            # durable.  The in-memory record list is NOT updated: this
            # process is dead and only the file survives.
            frame = LogRecord.make(self._next_lsn, kind, payload).frame
            if self._file is not None:
                self._file.write(frame[: max(1, len(frame) // 2)])
                self._file.flush()
                os.fsync(self._file.fileno())
            raise SimulatedCrash(spec)
        # CRASH_AFTER: the append completes durably, then the process
        # dies before the caller hears about it.
        super().append(kind, payload, change)
        raise SimulatedCrash(spec)

    def checkpoint(self) -> LogRecord:
        spec = self.injector.check("wal.checkpoint")
        if spec is not None:
            if spec.mode is FaultMode.ERROR:
                raise FaultInjectionError(
                    f"injected fault at {spec.describe()}",
                    site=spec.site,
                    occurrence=spec.occurrence,
                )
            raise SimulatedCrash(spec)
        return super().checkpoint()


class FaultyDiskManager(DiskManager):
    """A disk manager whose physical transfers can fail.

    - ``disk.write_page`` ``ERROR`` — the flush fails with an I/O
      error.  Like a real fsync failure, this condemns the instance
      (the torture driver stops the workload and recovers from the
      WAL; it does not limp on with a page of unknown state).
    - ``disk.write_page`` ``TORN`` — half the page image is lost, then
      the process dies.  Recovery replays the log into a fresh heap,
      so the torn image must be invisible afterwards.
    - ``disk.read_page`` ``ERROR`` — the fetch fails (unreadable
      sector).
    """

    def __init__(self, injector: FaultInjector, page_size: int | None = None) -> None:
        if page_size is None:
            super().__init__()
        else:
            super().__init__(page_size=page_size)
        self.injector = injector

    def _store(self, page: Page) -> None:
        spec = self.injector.check("disk.write_page")
        if spec is None:
            return
        if spec.mode is FaultMode.ERROR:
            raise FaultInjectionError(
                f"injected fault at {spec.describe()}",
                site=spec.site,
                occurrence=spec.occurrence,
            )
        # TORN: the tail of the slot directory never hit the platter.
        tear_page(page)
        raise SimulatedCrash(spec)

    def _fetch(self, page_no: int) -> Page:
        spec = self.injector.check("disk.read_page")
        if spec is not None:
            raise FaultInjectionError(
                f"injected fault at {spec.describe()}",
                site=spec.site,
                occurrence=spec.occurrence,
            )
        return super()._fetch(page_no)


def tear_page(page: Page) -> None:
    """Destroy the second half of a page's slots in place, simulating a
    torn (partially persisted) page write."""
    half = len(page._slots) // 2
    for position in range(half, len(page._slots)):
        if page._slots[position] is not None:
            page._slots[position] = None
            page._sizes[position] = 0


def build_faulty_database(
    injector: FaultInjector,
    wal_path: str,
    buffer_pool_pages: int = 32,
    page_size: int = 1024,
    segment_bytes: int | None = None,
) -> Database:
    """A :class:`Database` with every fault site armed.

    Small defaults on purpose: a tiny buffer pool forces evictions (so
    ``disk.write_page`` fires outside checkpoints too) and small pages
    spread rows over many of them.
    """
    wal = FaultyWAL(injector, wal_path, segment_bytes=segment_bytes)
    disk = FaultyDiskManager(injector, page_size=page_size)
    database = Database(
        buffer_pool_pages=buffer_pool_pages,
        page_size=page_size,
        wal=wal,
        disk=disk,
    )
    database.fault_hook = injector.fire
    # Disk-full probes: the pre-statement reserve checks fire the
    # "wal.enospc" / "disk.full" sites through the same arrival
    # counter, so ENOSPC refusal windows are schedulable and
    # enumerable like every other fault point.
    wal.fault_check = injector.check
    disk.fault_check = injector.check
    return database
