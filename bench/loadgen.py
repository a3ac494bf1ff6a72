"""The load generator: callers, closed loops, open loops.

A *caller* is one user of the system — a :class:`PMVClient` connection
for the socket workloads, a thread calling the gate and the database
directly for the in-process ones.  Both execute the same op tuples
(:mod:`bench.streams`) and log ``(op, start, end, outcome)``; every
clock read that bounds a latency happens here, and nothing in the timed
region belongs to the harness except the call itself.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.errors import ReproError
from repro.net.client import PMVClient

from bench import spec
from bench.streams import READ_KINDS
from bench.world import World, bind, tpcr_config

__all__ = [
    "REFERENCE_KERNEL_SECONDS",
    "BackgroundSpeedometer",
    "CallerLog",
    "Entry",
    "InprocCaller",
    "PhaseLog",
    "SocketCaller",
    "Speedometer",
    "run_phase",
]

_clock = time.perf_counter

# An open loop sleeps to within this of a due time and spins the rest:
# sleeps on a shared box overshoot by milliseconds, a spin does not.
_SPIN_SECONDS = 0.003

# Filler sized like load_tpcr's, so inserted rows weigh what loaded ones do.
_ORDER_COMMENT = "o" * 42
_LINE_COMMENT = "l" * 90


class Entry(NamedTuple):
    """One executed op as the caller saw it.  A tuple of plain values on
    purpose: the cyclic collector does not track it, so a long log in
    the generator does not slow collections in an in-process system."""

    op: tuple
    start: float
    end: float
    error: str | None = None
    # reads: the answer as delivered (kept only for the checker's
    # sample), and the LSN window it was valid in
    rows: list | None = None
    complete: bool = True
    low: int = 0
    high: int = 0
    # open loop only
    due: float = 0.0
    gen_lag: float = 0.0


class _Domains:
    def __init__(self, shape: spec.Shape) -> None:
        config = tpcr_config(shape)
        self.dates = config.order_dates()
        self.supps = list(range(1, config.suppliers + 1))

    def values(self, op: tuple) -> tuple[tuple, tuple]:
        _, d0, d1, s0, s1 = op
        return (self.dates[d0], self.dates[d1]), (self.supps[s0], self.supps[s1])


class SocketCaller:
    """One connection: a real :class:`PMVClient` with its default retry
    policy.  ``seen`` is shared by every caller of the run: the highest
    LSN any of them has had acknowledged, which bounds from below the
    state a later read can be answered from."""

    def __init__(self, address, name: str, shape: spec.Shape, template, seen: list) -> None:
        self.client = PMVClient(address[0], address[1], name, pool_size=1)
        self.template = template
        self.domains = _Domains(shape)
        self.seen = seen

    def close(self) -> None:
        self.client.close()

    def do(self, op: tuple) -> Entry:
        kind = op[0]
        if kind in READ_KINDS:
            query = bind(self.template, *self.domains.values(op))
            low = self.seen[0]
            start = _clock()
            if kind == "read":
                answer = self.client.query(query)
            elif kind == "partial":
                answer = self.client.query(query, budget=0.0)
            else:
                answer = self.client.query(
                    query,
                    prefer_replica=True,
                    staleness_bound=spec.REPLICA_STALENESS_BOUND,
                )
            end = _clock()
            return Entry(
                op, start, end, rows=answer.rows, complete=answer.complete,
                low=low, high=answer.applied_lsn,
            )
        start = _clock()
        if kind == "ins_order":
            _, orderkey, custkey, date_index, price = op
            ack = self.client.insert(
                "orders",
                [orderkey, custkey, self.domains.dates[date_index], price, _ORDER_COMMENT],
            )
        elif kind == "ins_line":
            ack = self.client.insert("lineitem", [*op[1:], _LINE_COMMENT])
        elif kind == "del_eq":
            ack = self.client.delete_eq(op[1], "orderkey", op[2])
        else:
            raise ValueError(f"op {kind!r} has no wire form")
        end = _clock()
        if ack.lsn > self.seen[0]:
            self.seen[0] = ack.lsn
        return Entry(op, start, end, high=ack.lsn)


class InprocCaller:
    """One in-process user: reads through ``ServingGate.execute``,
    writes through ``Database``.  Keyed writes find their row through
    the ``lineitem_orderkey`` index *before* the clock starts — a user
    of the in-process API holds a row id; the harness, which only knows
    keys, has to look it up."""

    def __init__(self, world: World) -> None:
        self.world = world
        self.database = world.database
        self.domains = _Domains(world.shape)
        self._by_order = world.database.catalog.index("lineitem_orderkey")
        self._lineitem = world.database.catalog.relation("lineitem")

    def close(self) -> None:
        pass

    def _row_id(self, orderkey: int, linenumber: int):
        for row_id in self._by_order.probe(orderkey):
            if self._lineitem.fetch(row_id)["linenumber"] == linenumber:
                return row_id
        raise KeyError((orderkey, linenumber))

    def do(self, op: tuple) -> Entry:
        kind = op[0]
        database = self.database
        if kind in READ_KINDS:
            query = bind(self.world.template, *self.domains.values(op))
            world = self.world
            start = _clock()
            if kind == "replica":
                result = world.front_end.execute_query(
                    query, prefer_replica=True, staleness_bound=spec.REPLICA_STALENESS_BOUND
                )["result"]
            else:
                result = world.gate.execute(query, deadline=0.0 if kind == "partial" else None)
            rows = [row.values for row in result.user_rows()]
            end = _clock()
            high = database.current_lsn()
            low = high if result.applied_lsn is None else min(high, result.applied_lsn)
            return Entry(op, start, end, rows=rows, complete=result.complete, low=low, high=high)
        if kind == "drain":
            start = _clock()
            self.world.async_maintainer.drain()
            return Entry(op, start, _clock())
        start, end = self.write(op)
        return Entry(op, start, end, high=database.current_lsn())

    def write(self, op: tuple, idem: str | None = None) -> tuple[float, float]:
        """Run one DML op; returns the clock just around the database
        call.  ``idem`` rides into the WAL like a wire client's key."""
        kind = op[0]
        database = self.database
        if kind == "ins_line":
            values = [*op[1:], _LINE_COMMENT]
            start = _clock()
            database.insert("lineitem", values, idem=idem)
        elif kind == "del_line":
            row_id = self._row_id(op[1], op[2])
            start = _clock()
            database.delete("lineitem", row_id, idem=idem)
        elif kind == "upd_line":
            row_id = self._row_id(op[1], op[2])
            start = _clock()
            database.update("lineitem", row_id, idem=idem, quantity=op[3])
        elif kind == "ins_order":
            _, orderkey, custkey, date_index, price = op
            values = [orderkey, custkey, self.domains.dates[date_index], price, _ORDER_COMMENT]
            start = _clock()
            database.insert("orders", values, idem=idem)
        elif kind == "del_eq":
            _, relation, orderkey = op
            start = _clock()
            database.delete_where(
                relation, lambda row: row["orderkey"] == orderkey, idem=idem
            )
        else:
            raise ValueError(f"unknown op {kind!r}")
        return start, _clock()


# -- speed calibration -------------------------------------------------------------

# The box this runs on changes speed by tens of percent from one second
# to the next (neighbours on the host), which no amount of repetition
# averages out of a 20 s run.  So every loop also times a small fixed
# kernel between ops, and every latency is reported at *reference
# speed*: multiplied by REFERENCE_KERNEL_SECONDS over the kernel's
# local duration.  The kernel is arithmetic, C-level JSON encoding and
# dict/tuple/sort work in equal parts; it shares no code with the
# library, so nothing a change to ``src/`` does can move it.  Changing
# the kernel or the constant re-bases every timing metric.
REFERENCE_KERNEL_SECONDS = 90e-6
_KERNEL_GAP_SECONDS = 0.0015  # at most one kernel per this much time
_KERNEL_WINDOW = 15  # kernel samples in the local (rolling median) estimate

_KERNEL_ROWS = [
    [i, i * 3, "1994-01-%02d" % (i % 28 + 1), i * 1.5, i % 8, i % 4, float(i % 50), i * 2.25]
    for i in range(40)
]


def _kernel():
    total = 0
    for i in range(300):
        total += i * i
    text = json.dumps(_KERNEL_ROWS, separators=(",", ":"))
    table = {}
    for row in _KERNEL_ROWS:
        table[(row[0], row[5])] = tuple(row)
    return sorted(v for v in table.values() if v[4] != 3), total, text


class BackgroundSpeedometer:
    """Times the kernel every few milliseconds on a thread of its own
    while the caller does something long that has no gaps to sample in
    (a set-up).  Each wake-up runs the kernel three times and keeps the
    third: the first two pay for waking a sleeping core.  ``factor()``
    is reference speed over the median speed seen while it ran."""

    def __init__(self, period: float = 0.01) -> None:
        self.took: list[float] = []
        self._period = period
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="bench-speedometer", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._period):
            _kernel()
            _kernel()
            start = _clock()
            _kernel()
            self.took.append(_clock() - start)

    def __enter__(self) -> "BackgroundSpeedometer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self) -> float:
        return REFERENCE_KERNEL_SECONDS / float(np.median(self.took)) if self.took else 1.0


class Speedometer:
    """Times the kernel in the gaps of one loop."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self._last = 0.0

    def sample(self, not_after: float | None = None) -> None:
        """Run the kernel unless one ran within the gap, or there is not
        room for one before ``not_after`` (an open loop's next due time)."""
        start = _clock()
        if start - self._last < _KERNEL_GAP_SECONDS:
            return
        if not_after is not None and not_after - start < 4 * REFERENCE_KERNEL_SECONDS:
            return
        _kernel()
        self._last = _clock()
        self.at.append(start)
        self.took.append(self._last - start)

    def factors(self, moments: list[float]) -> np.ndarray:
        """For each moment, reference speed over local speed: the number
        a duration measured there is multiplied by."""
        if not self.took:
            return np.ones(len(moments))
        took = np.asarray(self.took)
        half = _KERNEL_WINDOW // 2
        padded = np.pad(took, (half, half), mode="edge")
        local = np.median(np.lib.stride_tricks.sliding_window_view(padded, _KERNEL_WINDOW), axis=1)
        nearest = np.clip(np.searchsorted(np.asarray(self.at), np.asarray(moments)), 0, len(took) - 1)
        return REFERENCE_KERNEL_SECONDS / local[nearest]


# -- loops ---------------------------------------------------------------------


@dataclass
class CallerLog:
    """One caller's part of a phase: what it did, and the speed factor
    in force around each op."""

    loop: str  # "closed" | "open"
    entries: list[Entry] = field(default_factory=list)
    speed: Speedometer = field(default_factory=Speedometer)
    factors: np.ndarray | None = None


@dataclass
class PhaseLog:
    """What one phase produced: a log per caller, the wall time the
    phase really took, and that time at reference speed (the divisor of
    every rate)."""

    name: str
    begin: float = 0.0
    callers: list[CallerLog] = field(default_factory=list)
    wall: float = 0.0
    reference_wall: float = 0.0

    def entries(self, loop: str | None = None):
        for caller in self.callers:
            if loop is None or caller.loop == loop:
                yield from caller.entries

    def timed(self, loop: str | None = None):
        """``(entry, speed factor)`` pairs."""
        for caller in self.callers:
            if loop is None or caller.loop == loop:
                yield from zip(caller.entries, caller.factors)

    def speed_index(self) -> float:
        """Reference speed over this phase's median speed (< 1: the box
        was slower than the reference while the phase ran)."""
        took = [t for caller in self.callers for t in caller.speed.took]
        return REFERENCE_KERNEL_SECONDS / float(np.median(took)) if took else 1.0


class _Sampler:
    """Keeps the rows of the answers the checker will look at — every
    partial-only answer and every ``CHECK_EVERY``-th full one — and
    drops the rest at once, so a log holds timings, not result sets."""

    def __init__(self) -> None:
        self.full = 0

    def attempt(self, caller, op: tuple) -> Entry:
        start = _clock()
        try:
            entry = caller.do(op)
        except (ReproError, OSError) as exc:
            return Entry(op, start, _clock(), error=f"{type(exc).__name__}: {exc}")
        if entry.rows is not None and op[0] != "partial":
            self.full += 1
            if self.full % spec.CHECK_EVERY:
                return entry._replace(rows=None)
        return entry


def _closed_loop(caller, stream: list, log: CallerLog, begin: float, seconds: float) -> None:
    deadline = begin + seconds
    sampler = _Sampler()
    time.sleep(max(0.0, begin - _clock()))
    for op in stream:
        if _clock() >= deadline:
            return
        log.entries.append(sampler.attempt(caller, op))
        log.speed.sample()


def _open_loop(caller, stream: list, log: CallerLog, begin: float, interval: float, offset: float) -> None:
    """Send op ``i`` at ``begin + offset + i * interval`` whether or not
    the system kept up; time each from when it was *due*.  ``gen_lag``
    is the part of any lateness that is the generator's own: how long
    after both the due time and the previous reply the send happened."""
    free_at = begin
    sampler = _Sampler()
    for i, op in enumerate(stream):
        due = begin + offset + i * interval
        log.speed.sample(not_after=due)
        wait = due - _clock() - _SPIN_SECONDS
        if wait > 0:
            time.sleep(wait)
        while _clock() < due:
            pass
        sent = _clock()
        entry = sampler.attempt(caller, op)
        log.entries.append(entry._replace(due=due, gen_lag=sent - max(due, free_at)))
        free_at = entry.end


def run_phase(phase: spec.Phase, seconds: float, callers: list, closed: list, open_: list) -> PhaseLog:
    """Run one phase: ``callers`` are matched to the closed streams
    first, then the open ones.  Every loop runs on its own thread and
    starts from one shared instant."""
    log = PhaseLog(phase.name)
    threads = []
    crashes: list[BaseException] = []

    def guarded(loop, *args) -> None:
        try:
            loop(*args)
        except BaseException as exc:  # a harness bug must fail the run, not one thread
            crashes.append(exc)

    begin = _clock() + 0.05
    for caller, stream in zip(callers, closed):
        mine = CallerLog("closed")
        log.callers.append(mine)
        threads.append(
            threading.Thread(target=guarded, args=(_closed_loop, caller, stream, mine, begin, seconds))
        )
    interval = len(open_) / phase.rate if open_ else 0.0
    for k, (caller, stream) in enumerate(zip(callers[len(closed):], open_)):
        mine = CallerLog("open")
        log.callers.append(mine)
        threads.append(
            threading.Thread(
                target=guarded,
                args=(_open_loop, caller, stream, mine, begin, interval, k / phase.rate),
            )
        )
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if crashes:
        raise crashes[0]
    last = max((e.end for e in log.entries()), default=begin)
    log.begin = begin
    log.wall = last - begin
    for mine in log.callers:
        mine.factors = mine.speed.factors([e.start for e in mine.entries])
    log.reference_wall = _reference_wall(log)
    return log


def _reference_wall(log: PhaseLog, step: float = 0.25) -> float:
    """The phase's wall time at reference speed: each quarter second
    counts for its length times the speed factor measured inside it."""
    at = np.concatenate([np.asarray(c.speed.at) for c in log.callers])
    took = np.concatenate([np.asarray(c.speed.took) for c in log.callers])
    if not len(took):
        return log.wall
    overall = float(np.median(took))
    total, left = 0.0, log.begin
    while left < log.begin + log.wall:
        right = min(left + step, log.begin + log.wall)
        inside = took[(at >= left) & (at < right)]
        local = float(np.median(inside)) if len(inside) >= 3 else overall
        total += (right - left) * REFERENCE_KERNEL_SECONDS / local
        left = right
    return total
