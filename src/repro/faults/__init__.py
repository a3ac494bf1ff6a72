"""Deterministic fault injection.

The subsystem the crash-recovery torture harness
(:mod:`repro.bench.torture`) drives:

- :mod:`repro.faults.plan` — seeded, replayable fault schedules
  (:class:`FaultPlan`, :class:`FaultSpec`, :class:`FaultMode`);
- :mod:`repro.faults.inject` — the injector and the faulty engine
  components (:class:`FaultyWAL`, :class:`FaultyDiskManager`,
  :class:`SimulatedCrash`);
- :mod:`repro.faults.sched` — the seeded cooperative thread scheduler
  (:class:`InterleavingScheduler`) that makes concurrent protocol
  races replayable, driven by :mod:`repro.bench.stress`;
- :mod:`repro.faults.partition` — seeded network-partition schedules
  (:class:`PartitionPlan`, :class:`Nemesis`) over the cluster's link
  seams, driven by :mod:`repro.bench.nemesis`.

Production code paths pay for none of this: the hooks are ``None``
checks, and the faulty components are opt-in subclasses.
"""

from repro.faults.inject import (
    FaultInjector,
    FaultyDiskManager,
    FaultyWAL,
    SimulatedCrash,
    build_faulty_database,
)
from repro.faults.partition import (
    PARTITION_LINKS,
    Nemesis,
    PartitionEvent,
    PartitionPlan,
)
from repro.faults.plan import SITES, FaultMode, FaultPlan, FaultSpec, modes_for_site
from repro.faults.sched import InterleavingScheduler, SchedDeadlock

__all__ = [
    "Nemesis",
    "PartitionEvent",
    "PartitionPlan",
    "PARTITION_LINKS",
    "InterleavingScheduler",
    "SchedDeadlock",
    "FaultMode",
    "FaultPlan",
    "FaultSpec",
    "SITES",
    "modes_for_site",
    "FaultInjector",
    "FaultyWAL",
    "FaultyDiskManager",
    "SimulatedCrash",
    "build_faulty_database",
]
