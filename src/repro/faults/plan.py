"""Deterministic fault schedules.

A :class:`FaultPlan` is a reproducible description of *which* fault
fires *where*: a set of :class:`FaultSpec` triples ``(site, occurrence,
mode)`` meaning "at the Nth time execution reaches fault site ``site``,
fail in ``mode``".  Sites are counted per run by the
:class:`~repro.faults.inject.FaultInjector`, so the same plan against
the same seeded workload reproduces the same failure bit-for-bit —
every divergence the torture harness reports is replayable from its
printed spec.

Fault sites (see :mod:`repro.faults.inject` for the wiring):

======================  ====================================================
``wal.append``          a log record write (crash before / torn / after)
``wal.checkpoint``      the checkpoint marker append
``disk.write_page``     a physical page flush (fail / torn + crash)
``disk.read_page``      a physical page fetch (fail)
``txn.commit``          a transaction commit, before the status flip
``txn.abort``           a transaction abort, before the status flip
``maintenance.prepare`` PMV X-lock acquisition, before the base write
``maintenance.apply``   PMV stale-tuple removal, after the base write
``cdc.drain``           the async maintainer applying one logged delta
                        (fail / crash mid-drain)
``ship.send``           a replication transport send (drop / duplicate /
                        reorder / partition)
``wal.enospc``          the pre-statement WAL space probe / segment
                        rotation (ENOSPC: typed DiskFullError refusal)
``disk.full``           the pre-statement page-write space probe
                        (ENOSPC refusal)
======================  ====================================================
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = [
    "FaultMode",
    "FaultSpec",
    "FaultPlan",
    "SITES",
    "NETWORK_MODES",
    "modes_for_site",
]


class FaultMode(enum.Enum):
    """How a matched fault point fails.

    - ``CRASH_BEFORE`` — the process dies before the operation takes
      effect (nothing durable happened);
    - ``CRASH_AFTER`` — the operation completes durably, then the
      process dies before acknowledging it;
    - ``TORN`` — the operation is cut off partway (a torn WAL tail or a
      torn page image), then the process dies;
    - ``ERROR`` — a recoverable exception
      (:class:`~repro.errors.FaultInjectionError`) is raised; the
      engine must abort the statement cleanly and keep running.

    Network modes (meaningful only at transport sites such as
    ``ship.send``; they model a lossy link, not a dying process):

    - ``DROP`` — the message vanishes in flight;
    - ``DUPLICATE`` — the message is delivered twice;
    - ``REORDER`` — the message is held back and delivered after its
      successors;
    - ``PARTITION`` — the link goes down: this message and everything
      after it is lost until the link is explicitly healed.
    """

    CRASH_BEFORE = "crash_before"
    CRASH_AFTER = "crash_after"
    TORN = "torn"
    ERROR = "error"
    DROP = "drop"
    DUPLICATE = "duplicate"
    REORDER = "reorder"
    PARTITION = "partition"


#: Every fault site with the modes that are meaningful there.  WAL
#: appends have no ERROR mode on purpose: the log is force-at-append,
#: so a failed append *is* a crash (the engine cannot guarantee
#: durability past it) — the same reasoning real systems apply to
#: fsync failure.  Disk faults likewise condemn the instance (the
#: torture driver treats a disk ERROR as fatal), and aborts must be
#: failure-proof, so the abort site only crashes.
SITES: dict[str, tuple[FaultMode, ...]] = {
    "wal.append": (FaultMode.CRASH_BEFORE, FaultMode.TORN, FaultMode.CRASH_AFTER),
    "wal.checkpoint": (FaultMode.ERROR, FaultMode.CRASH_BEFORE),
    "disk.write_page": (FaultMode.ERROR, FaultMode.TORN),
    "disk.read_page": (FaultMode.ERROR,),
    "txn.commit": (FaultMode.CRASH_BEFORE,),
    "txn.abort": (FaultMode.CRASH_BEFORE,),
    "maintenance.prepare": (FaultMode.ERROR, FaultMode.CRASH_BEFORE),
    "maintenance.apply": (FaultMode.ERROR, FaultMode.CRASH_BEFORE),
    # The drain has nothing to abort: an ERROR there exercises the
    # fail-safe clear.
    "cdc.drain": (FaultMode.ERROR, FaultMode.CRASH_BEFORE),
    "ship.send": (
        FaultMode.DROP,
        FaultMode.DUPLICATE,
        FaultMode.REORDER,
        FaultMode.PARTITION,
    ),
    # Disk-full sites fire at the reserve-before-mutate probes, so the
    # only meaningful mode is ERROR: the statement is refused cleanly
    # (a typed DiskFullError) before anything mutates, and because
    # ERROR never disarms the injector, a plan can schedule several
    # consecutive occurrences to model a sustained ENOSPC *window*
    # that later clears (the endurance drill does exactly this).
    "wal.enospc": (FaultMode.ERROR,),
    "disk.full": (FaultMode.ERROR,),
}


#: Modes that model a lossy link rather than a dying process.  The
#: injector must not disarm after one (the "process" is still alive),
#: and transports interpret them in-line instead of raising.
NETWORK_MODES: frozenset[FaultMode] = frozenset(
    {FaultMode.DROP, FaultMode.DUPLICATE, FaultMode.REORDER, FaultMode.PARTITION}
)


def modes_for_site(site: str) -> tuple[FaultMode, ...]:
    """The fault modes meaningful at ``site``."""
    return SITES[site]


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: fail at the ``occurrence``-th arrival
    (1-based) at ``site``, in ``mode``."""

    site: str
    occurrence: int
    mode: FaultMode

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r}")
        if self.occurrence < 1:
            raise ValueError("occurrence is 1-based and must be >= 1")
        if self.mode not in SITES[self.site]:
            raise ValueError(
                f"mode {self.mode.value!r} is not meaningful at {self.site!r}"
            )

    def describe(self) -> str:
        """Compact replayable form, e.g. ``wal.append:3:torn``."""
        return f"{self.site}:{self.occurrence}:{self.mode.value}"

    @staticmethod
    def parse(text: str) -> "FaultSpec":
        """Inverse of :meth:`describe`."""
        site, occurrence, mode = text.rsplit(":", 2)
        return FaultSpec(site, int(occurrence), FaultMode(mode))


class FaultPlan:
    """A reproducible schedule of fault points.

    The common case is a single crash point (one spec); the plan also
    accepts many, which the injector fires independently as their
    occurrence counts are reached.
    """

    def __init__(self, specs: Iterable[FaultSpec] = ()) -> None:
        self.specs = tuple(specs)
        self._by_site: dict[str, dict[int, FaultSpec]] = {}
        for spec in self.specs:
            slot = self._by_site.setdefault(spec.site, {})
            if spec.occurrence in slot:
                raise ValueError(
                    f"duplicate fault point {spec.site}:{spec.occurrence}"
                )
            slot[spec.occurrence] = spec

    @classmethod
    def crash_at(
        cls, site: str, occurrence: int = 1, mode: FaultMode | None = None
    ) -> "FaultPlan":
        """A single-fault plan (the sweep's unit of work)."""
        if mode is None:
            mode = SITES[site][0]
        return cls([FaultSpec(site, occurrence, mode)])

    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan — used by the enumeration pass, which only
        counts how often each site is reached."""
        return cls()

    def match(self, site: str, occurrence: int) -> FaultSpec | None:
        return self._by_site.get(site, {}).get(occurrence)

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def describe(self) -> str:
        return ",".join(spec.describe() for spec in self.specs) or "<no faults>"

    # -- (de)serialization for replay files --------------------------------

    def to_json(self) -> str:
        return json.dumps([spec.describe() for spec in self.specs])

    @staticmethod
    def from_json(text: str) -> "FaultPlan":
        return FaultPlan([FaultSpec.parse(item) for item in json.loads(text)])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan({self.describe()})"
