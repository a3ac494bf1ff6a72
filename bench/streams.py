"""Seeded input streams, generated up front.

The program under test only ever receives what this module produced
from ``--seed``: read streams are arrays of Zipf-ranked value indices,
write streams are lists of keyed DML ops.  The write generators keep
their own model of which keys are live, so deletes and updates always
name a row that exists — no stream needs feedback from the database.

Op encoding (tuples, first element the kind):

- reads: ``("read" | "partial" | "replica", d0, d1, s0, s1)`` — indices
  into the date and supplier domains;
- wire writes: ``("ins_order", orderkey, custkey, date_index, price)``,
  ``("ins_line", orderkey, suppkey, linenumber, quantity, price)``,
  ``("del_eq", relation, orderkey)``;
- keyed writes: ``("ins_line", ...)`` as above,
  ``("del_line", orderkey, linenumber)``,
  ``("upd_line", orderkey, linenumber, quantity)``;
- ``("drain",)``: the generator calls the CDC drain here.
"""

from __future__ import annotations

import numpy as np

from repro.workload.zipf import ZipfianDistribution

from bench import spec

__all__ = ["Streams", "warmup_reads"]

READ_KINDS = ("read", "partial", "replica")
WRITE_KINDS = ("ins_order", "ins_line", "del_eq", "del_line", "upd_line")

_FRESH_ORDERKEY = 1_000_000  # wire cycles insert orders from here up
_FRESH_LINENUMBER = 1_000  # keyed inserts number their lineitems from here up


def _seed_of(sequence: np.random.SeedSequence) -> int:
    return int(sequence.generate_state(1)[0])


def _distinct_pairs(n: int, alpha: float, count: int, sequence) -> np.ndarray:
    """``count`` pairs of distinct Zipf(alpha) ranks over ``n`` items."""
    dist = ZipfianDistribution(n, alpha, seed=_seed_of(sequence))
    pairs = np.stack([dist.sample(count), dist.sample(count)], axis=1)
    clash = pairs[:, 0] == pairs[:, 1]
    while clash.any():
        pairs[clash, 1] = dist.sample(int(clash.sum()))
        clash = pairs[:, 0] == pairs[:, 1]
    return pairs


class Streams:
    """Every stream of one workload run, derived from one seed."""

    def __init__(self, workload: spec.Workload, seed: int, seconds: float) -> None:
        self.workload = workload
        self.shape = spec.SHAPES[workload.shape]
        self.seconds = seconds
        self._root = np.random.SeedSequence([seed, len(workload.name)])
        self._write_phases = [
            p.name
            for p in workload.phases
            if any(s in ("writes", "mixed") for s in p.closed + p.open)
        ]

    def for_phase(self, phase: spec.Phase) -> tuple[list[list], list[list]]:
        """``(closed, open)``: one op list per caller of each loop."""
        index = [p.name for p in self.workload.phases].index(phase.name)
        callers = len(phase.closed) + len(phase.open)
        seeds = np.random.SeedSequence(
            self._root.entropy, spawn_key=(index,)
        ).spawn(callers)
        duration = phase.share * self.seconds
        per_open = phase.rate / max(1, len(phase.open))
        out: list[list] = []
        for position, name in enumerate(phase.closed + phase.open):
            is_open = position >= len(phase.closed)
            rate = per_open if is_open else phase.max_rate
            # An open caller sends exactly rate x duration ops; a closed
            # one gets a stream it cannot exhaust at max_rate.
            count = int(rate * duration) + (0 if is_open else 64)
            out.append(self._stream(name, phase.name, count, seeds[position]))
        return out[: len(phase.closed)], out[len(phase.closed):]

    def sample_seeds(self):
        """Seeds of the traced pass's read and write samples."""
        return np.random.SeedSequence(self._root.entropy, spawn_key=(len(self.workload.phases),)).spawn(2)

    # -- one stream ------------------------------------------------------------

    def _stream(self, name: str, phase: str, count: int, sequence) -> list:
        if name == "full":
            return self.reads(count, sequence, partial_every=0)
        if name == "reads":
            return self.reads(count, sequence, partial_every=spec.PARTIAL_EVERY)
        part = self._write_phases.index(phase), len(self._write_phases)
        if name == "writes":
            if self.workload.transport == "socket":
                return self.wire_writes(count, sequence, part)
            return self.keyed_writes(count, sequence, part)
        if name == "mixed":
            return self.mixed(count, sequence, part)
        raise ValueError(f"unknown stream {name!r}")

    def reads(self, count: int, sequence, partial_every: int) -> list:
        date_seq, supp_seq, route_seq = sequence.spawn(3)
        alpha = self.workload.alpha
        dates = _distinct_pairs(self.shape.dates, alpha, count, date_seq)
        supps = _distinct_pairs(self.shape.suppliers, alpha, count, supp_seq)
        replica = np.zeros(count, dtype=bool)
        if self.workload.replicated:
            rng = np.random.default_rng(route_seq)
            replica = rng.random(count) < spec.REPLICA_SHARE
        ops = []
        for i in range(count):
            if partial_every and i % partial_every == partial_every - 1:
                kind = "partial"
            elif replica[i]:
                kind = "replica"
            else:
                kind = "read"
            ops.append(
                (kind, int(dates[i, 0]), int(dates[i, 1]), int(supps[i, 0]), int(supps[i, 1]))
            )
        return ops

    def wire_writes(self, count: int, sequence, part: tuple[int, int]) -> list:
        """Insert an order on a hot date, two of its lineitems on hot
        suppliers, then delete (lineitems first) the order inserted
        ``CYCLE_BACKLOG`` cycles ago, so both tables stay level."""
        rng = np.random.default_rng(sequence)
        alpha = self.workload.alpha
        hot_date = ZipfianDistribution(self.shape.dates, alpha, seed=int(rng.integers(2**31)))
        hot_supp = ZipfianDistribution(self.shape.suppliers, alpha, seed=int(rng.integers(2**31)))
        base = _FRESH_ORDERKEY * (part[0] + 1)
        ops: list = []
        cycle = 0
        while len(ops) < count:
            orderkey = base + cycle
            ops.append(
                (
                    "ins_order",
                    orderkey,
                    int(rng.integers(1, spec.CUSTOMERS + 1)),
                    hot_date.sample_one(),
                    round(float(rng.uniform(100.0, 500000.0)), 2),
                )
            )
            for linenumber in (1, 2):
                ops.append(
                    (
                        "ins_line",
                        orderkey,
                        hot_supp.sample_one() + 1,
                        linenumber,
                        float(rng.integers(1, 51)),
                        round(float(rng.uniform(900.0, 105000.0)), 2),
                    )
                )
            if cycle >= spec.CYCLE_BACKLOG:
                old = orderkey - spec.CYCLE_BACKLOG
                ops.append(("del_eq", "lineitem", old))
                ops.append(("del_eq", "orders", old))
            cycle += 1
        return ops[:count]

    def keyed_writes(self, count: int, sequence, part: tuple[int, int]) -> list:
        """30 % delete / 40 % update of a select-list column / 30 %
        insert on lineitem, by ``(orderkey, linenumber)``.  Each write
        phase owns the orders with ``orderkey % parts == part`` and the
        rows it inserted itself, so phases cannot disturb each other
        whatever prefix of a stream was actually executed."""
        rng = np.random.default_rng(sequence)
        hot_supp = ZipfianDistribution(
            self.shape.suppliers, self.workload.alpha, seed=int(rng.integers(2**31))
        )
        index, parts = part
        orders = [k for k in range(1, spec.ORDERS + 1) if k % parts == index]
        live = [
            (k, n) for k in orders for n in range(1, spec.LINEITEMS_PER_ORDER + 1)
        ]
        fresh = _FRESH_LINENUMBER * (index + 1)
        rolls = rng.random(count)
        picks = rng.random(count)
        ops: list = []
        for i in range(count):
            roll = rolls[i]
            if roll < 0.30 and len(live) > 1:
                victim = int(picks[i] * len(live))
                live[victim], live[-1] = live[-1], live[victim]
                ops.append(("del_line", *live.pop()))
            elif roll < 0.70:
                key = live[int(picks[i] * len(live))]
                ops.append(("upd_line", *key, float(rng.integers(1, 51))))
            else:
                key = (orders[int(picks[i] * len(orders))], fresh)
                fresh += 1
                live.append(key)
                ops.append(
                    (
                        "ins_line",
                        key[0],
                        hot_supp.sample_one() + 1,
                        key[1],
                        float(rng.integers(1, 51)),
                        round(float(rng.uniform(900.0, 105000.0)), 2),
                    )
                )
        return ops

    def mixed(self, count: int, sequence, part: tuple[int, int]) -> list:
        """Keyed writes with a drain after every ``DRAIN_EVERY`` and, per
        ten writes, one partial-only and one full stamped read."""
        write_seq, read_seq = sequence.spawn(2)
        writes = self.keyed_writes(count, write_seq, part)
        reads = iter(self.reads(count // 5 + 2, read_seq, partial_every=0))
        ops: list = []
        for i, write in enumerate(writes, start=1):
            ops.append(write)
            if i % spec.DRAIN_EVERY == 0:
                ops.append(("drain",))
            if i % 10 == 5:
                ops.append(("partial",) + next(reads)[1:])
            elif i % 10 == 0:
                ops.append(next(reads))
        return ops[:count]


def warmup_reads(
    shape: spec.Shape, workload: spec.Workload, seed: int, replicated: bool
) -> list:
    """The seeded warm-up: when the PMV can hold every cell, a sweep of
    2x2 queries that touches each cell once; otherwise the first 300
    reads of a stream with the workload's own skew.  A replicated world
    gets the same reads again as replica reads: the standby's mirrored
    view starts cold too."""
    if shape.cells <= shape.max_entries:
        warm = [
            ("read", d, d + 1, s, s + 1)
            for d in range(0, shape.dates - 1, 2)
            for s in range(0, shape.suppliers - 1, 2)
        ]
    else:
        streams = Streams(workload, seed, 0.0)
        warm = streams.reads(300, np.random.SeedSequence([seed, 0x3A]), partial_every=0)
    if replicated:
        warm = warm + [("replica",) + op[1:] for op in warm]
    return warm
