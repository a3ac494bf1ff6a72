"""Fixtures for the network tier: a WAL-backed single node and a
semi-sync replicated cluster, each behind a real TCP socket server."""

from __future__ import annotations

import pytest

from repro.core import Discretization
from repro.core.manager import PMVManager
from repro.engine import (
    Column,
    Database,
    INTEGER,
    JoinEquality,
    QueryTemplate,
    SelectionSlot,
    SlotForm,
    TEXT,
)
from repro.engine.wal import WriteAheadLog
from repro.net import ClusterFrontEnd, NetServer, PMVClient
from repro.net.client import RetryPolicy
from repro.qos.gate import ServingGate
from repro.replication import FailoverCoordinator, PrimaryNode, ReplicaNode


def make_template(name: str = "Eqt") -> QueryTemplate:
    return QueryTemplate(
        name=name,
        relations=("r", "s"),
        select_list=("r.a", "s.e"),
        joins=(JoinEquality("r", "c", "s", "d"),),
        slots=(
            SelectionSlot("r", "r.f", SlotForm.EQUALITY),
            SelectionSlot("s", "s.g", SlotForm.EQUALITY),
        ),
    )


def make_database() -> Database:
    """The Figure 1 schema on a WAL-backed database (idempotency keys
    ride in WAL payloads, so the net tests always attach one)."""
    database = Database(wal=WriteAheadLog())
    database.create_relation(
        "r",
        [
            Column("id", INTEGER, nullable=False),
            Column("c", INTEGER, nullable=False),
            Column("f", INTEGER, nullable=False),
            Column("a", TEXT),
        ],
    )
    database.create_relation(
        "s",
        [
            Column("d", INTEGER, nullable=False),
            Column("g", INTEGER, nullable=False),
            Column("e", TEXT),
        ],
    )
    database.create_index("r_f", "r", ["f"])
    database.create_index("r_c", "r", ["c"])
    database.create_index("s_d", "s", ["d"])
    database.create_index("s_g", "s", ["g"])
    for i in range(48):
        database.insert("r", (i, i % 12, i % 6, f"a{i}"))
    for j in range(24):
        database.insert("s", (j % 12, j % 5, f"e{j}"))
    return database


class SingleNode:
    """One WAL-backed node behind a socket server."""

    def __init__(self):
        self.db = make_database()
        self.template = make_template()
        self.db.register_template(self.template)
        self.manager = PMVManager(self.db)
        self.manager.create_view(
            self.template,
            Discretization(self.template),
            tuples_per_entry=2,
            max_entries=16,
            aux_index_columns=("r.a", "s.e"),
        )
        self.gate = ServingGate(self.manager)
        self.front_end = ClusterFrontEnd(self.gate)
        self.server = NetServer(self.front_end)
        self.host, self.port = self.server.start()

    def client(self, client_id: str = "t", **kwargs) -> PMVClient:
        kwargs.setdefault("retry", RetryPolicy(attempts=6, base_delay=0.005))
        return PMVClient(self.host, self.port, client_id, **kwargs)


class ClusterWorld:
    """Primary + two standbys + coordinator on a fake clock, behind a
    socket server — the netload topology at test size."""

    def __init__(self):
        self.db = make_database()
        self.template = make_template()
        self.db.register_template(self.template)
        self.manager = PMVManager(self.db)
        self.manager.create_view(
            self.template,
            Discretization(self.template),
            tuples_per_entry=2,
            max_entries=16,
            aux_index_columns=("r.a", "s.e"),
        )
        self.clock = [0.0]
        self.primary = PrimaryNode(
            self.db, manager=self.manager, clock=lambda: self.clock[0]
        )
        self.replicas = [ReplicaNode(f"replica-{n}") for n in (1, 2)]
        for replica in self.replicas:
            self.primary.attach_replica(replica)
        self.primary.ship()
        for replica in self.replicas:
            replica.mirror_views(self.manager)
        self.gate = ServingGate(self.manager)
        self.coordinator = FailoverCoordinator(
            self.primary,
            self.replicas,
            gate=self.gate,
            heartbeat_interval=1.0,
            lease_ttl=4.0,
            clock=lambda: self.clock[0],
        )
        self.front_end = ClusterFrontEnd(
            self.gate, coordinator=self.coordinator, staleness_bound=4
        )
        self.server = NetServer(self.front_end)
        self.host, self.port = self.server.start()

    def client(self, client_id: str = "t", **kwargs) -> PMVClient:
        kwargs.setdefault("retry", RetryPolicy(attempts=8, base_delay=0.005))
        return PMVClient(self.host, self.port, client_id, **kwargs)

    def fail_over(self):
        self.clock[0] += 10.0  # past the suspicion threshold and the lease
        promoted = self.coordinator.tick()
        assert promoted is not None
        return promoted


@pytest.fixture
def single_node():
    world = SingleNode()
    yield world
    world.server.stop()


@pytest.fixture
def cluster_world():
    world = ClusterWorld()
    yield world
    world.server.stop()
