"""Building the system under test: data, snapshot, WAL, view, serving stack.

One :func:`build_world` serves the in-process workloads, the server
child of the socket workloads, and every variant world of the traced
pass — so what is measured end to end and what is traced layer by layer
are the same construction, with default knobs only.
"""

from __future__ import annotations

import gc
import os
import threading
from dataclasses import dataclass, field

from repro.core.manager import PMVManager
from repro.engine.database import Database
from repro.engine.predicate import EqualityDisjunction
from repro.engine.snapshot import (
    restore_snapshot,
    snapshot_from_json,
    snapshot_to_json,
    take_snapshot,
)
from repro.engine.wal import WriteAheadLog
from repro.net.cluster import ClusterFrontEnd
from repro.qos.gate import ServingGate
from repro.replication import FailoverCoordinator, PrimaryNode, ReplicaNode
from repro.workload.templates import make_t1
from repro.workload.tpcr import TPCRConfig, load_tpcr

from bench import spec

__all__ = [
    "World", "build_world", "tpcr_config", "bind", "dir_bytes", "peak_rss_mb", "reset_peak_rss",
]

DATE_COLUMN = "orders.orderdate"
SUPP_COLUMN = "lineitem.suppkey"


def dir_bytes(path: str) -> int:
    """Bytes of every file under ``path`` (a WAL directory with its
    archive): the WAL is fsynced per record, so this is current."""
    total = 0
    for directory, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(directory, f)) for f in files)
    return total


def peak_rss_mb() -> float:
    """This process's peak resident set, from ``VmHWM``.  Not
    ``ru_maxrss``: that survives ``exec``, so a child would report its
    parent's peak at the fork when that was the larger."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def reset_peak_rss() -> None:
    """Start ``VmHWM`` again from the current resident set, so that in a
    full run, where the in-process workloads share this process, each
    reads its own peak and not an earlier workload's."""
    gc.collect()
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass  # no such knob here: the peak then spans the whole process


def tpcr_config(shape: spec.Shape) -> TPCRConfig:
    return TPCRConfig(
        scale_factor=1.0,
        downscale=1000,
        distinct_order_dates=shape.dates,
        suppliers=shape.suppliers,
    )


def bind(template, dates, supps):
    """One T1 query over the given date and supplier values."""
    return template.bind(
        [
            EqualityDisjunction(DATE_COLUMN, list(dates)),
            EqualityDisjunction(SUPP_COLUMN, list(supps)),
        ]
    )


@dataclass
class World:
    """One database with its serving stack, and the files that make it
    durable (snapshot + WAL directory)."""

    shape: spec.Shape
    database: Database
    template: object
    manager: PMVManager | None
    gate: ServingGate | None
    front_end: ClusterFrontEnd | None
    wal_dir: str
    snapshot_path: str
    primary: PrimaryNode | None = None
    replica: ReplicaNode | None = None
    coordinator: FailoverCoordinator | None = None
    async_maintainer: object | None = None
    _stop_heartbeat: threading.Event = field(default_factory=threading.Event)
    _heartbeat: threading.Thread | None = None

    @property
    def view(self):
        return self.manager.view(self.template.name)

    @property
    def executor(self):
        return self.manager.executor(self.template.name)

    def start_heartbeat(self) -> None:
        """Renew the primary's lease on the real clock until closed."""

        def beat() -> None:
            while not self._stop_heartbeat.wait(spec.HEARTBEAT_SECONDS):
                self.coordinator.primary.heartbeat(self.coordinator)

        self._heartbeat = threading.Thread(target=beat, name="bench-heartbeat", daemon=True)
        self._heartbeat.start()

    def close(self) -> None:
        self._stop_heartbeat.set()
        if self._heartbeat is not None:
            self._heartbeat.join(timeout=5.0)
        if self.database.wal is not None:
            self.database.wal.close()


def build_world(
    shape: spec.Shape,
    directory: str,
    view: bool = True,
    replicated: bool = False,
    async_cdc: bool = False,
    base: "World | None" = None,
) -> World:
    """Load the data, write the snapshot, attach the WAL, build the view
    and the serving stack.  The view starts cold; warming it is the
    caller's job (it is traffic, and traffic comes from the generator).
    With ``base``, the rows come from that world's snapshot file instead
    of a fresh load (the traced pass's variant worlds: same rows, a
    tenth of the time).
    """
    os.makedirs(directory, exist_ok=True)
    if base is None:
        database = Database()
        load_tpcr(database, tpcr_config(shape))
        # The durable base: a checksummed snapshot at LSN 0.  Everything
        # after it goes through the fsync-per-record WAL attached below.
        snapshot_text = snapshot_to_json(take_snapshot(database))
    else:
        with open(base.snapshot_path, encoding="utf-8") as handle:
            snapshot_text = handle.read()
        database = restore_snapshot(snapshot_from_json(snapshot_text))
    snapshot_path = os.path.join(directory, "snapshot.json")
    with open(snapshot_path, "w", encoding="utf-8") as handle:
        handle.write(snapshot_text)
        handle.flush()
        os.fsync(handle.fileno())
    wal_dir = os.path.join(directory, "wal")
    database.wal = WriteAheadLog(path=wal_dir, segment_bytes=spec.WAL_SEGMENT_BYTES)
    template = make_t1()
    world = World(
        shape=shape,
        database=database,
        template=template,
        manager=None,
        gate=None,
        front_end=None,
        wal_dir=wal_dir,
        snapshot_path=snapshot_path,
    )
    if not view:
        database.register_template(template)
        return world
    manager = PMVManager(database)
    manager.create_view(
        template,
        tuples_per_entry=shape.tuples_per_entry,
        max_entries=shape.max_entries,
    )
    world.manager = manager
    if async_cdc:
        world.async_maintainer = manager.enable_async_maintenance(
            drain_batch=spec.DRAIN_BATCH
        )
    world.gate = ServingGate(manager)
    if replicated:
        world.primary = PrimaryNode(database, manager=manager)
        world.replica = ReplicaNode.from_snapshot(snapshot_text, name="replica-1")
        world.primary.attach_replica(world.replica)
        world.replica.mirror_views(manager)
        world.coordinator = FailoverCoordinator(
            world.primary,
            [world.replica],
            gate=world.gate,
            heartbeat_interval=spec.HEARTBEAT_SECONDS,
            lease_ttl=spec.LEASE_TTL_SECONDS,
        )
    world.front_end = ClusterFrontEnd(world.gate, coordinator=world.coordinator)
    return world
