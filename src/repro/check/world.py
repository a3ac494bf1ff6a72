"""The one ``r ⋈ s`` world every drill runs against.

Two relations joined on ``r.c = s.d``, one template selecting
``r.a, s.e`` with equality slots on ``r.f`` and ``s.g``, one PMV over
it, and — for the replication drills — a primary with two caught-up
warm standbys behind a serving gate and a failover coordinator on one
fake clock.  A function takes a parameter only where two drills really
build something different; everything else is decided here, once.
"""

from __future__ import annotations

import random

from repro.core import Discretization, MaintenanceStrategy, PMVManager
from repro.engine import (
    Column,
    Database,
    EqualityDisjunction,
    INTEGER,
    JoinEquality,
    QueryTemplate,
    SelectionSlot,
    SlotForm,
    TEXT,
    WriteAheadLog,
)
from repro.qos.gate import ServingGate
from repro.replication import FailoverCoordinator, PrimaryNode, ReplicaNode

__all__ = [
    "GEOMETRY",
    "HEARTBEAT_INTERVAL",
    "LEASE_TTL",
    "RELATIONS",
    "Cluster",
    "attach_view",
    "bind",
    "build_rs",
    "build_world",
    "random_binding",
    "rs_template",
    "strategy_for_seed",
]

RELATIONS = ("r", "s")

HEARTBEAT_INTERVAL = 1.0
LEASE_TTL = 4.0
"""The cluster's timing on its fake clock, in seconds."""

DOMAINS = (6, 4, 3)
"""Distinct values of the join key ``r.c``/``s.d``, of ``r.f`` and of ``s.g``."""


def rs_template(name: str) -> QueryTemplate:
    return QueryTemplate(
        name=name,
        relations=RELATIONS,
        select_list=("r.a", "s.e"),
        joins=(JoinEquality("r", "c", "s", "d"),),
        slots=(
            SelectionSlot("r", "r.f", SlotForm.EQUALITY),
            SelectionSlot("s", "s.g", SlotForm.EQUALITY),
        ),
    )


def build_rs(
    database: Database,
    rows_r: int,
    rows_s: int,
    note: bool = False,
    selection_indexes: bool = True,
    domains: tuple[int, int, int] = DOMAINS,
) -> Database:
    """Schema, indexes and deterministic seed rows on ``database``.

    ``note`` adds ``r.note``, a column outside ``Ls'`` and ``Cjoin``
    (the stress writers' maintenance-free updates); without
    ``selection_indexes`` only the join columns are indexed (the
    endurance world); ``domains`` widens the key spaces (the CDC bench).
    """
    n_c, n_f, n_g = domains
    r_columns = [
        Column("id", INTEGER, nullable=False),
        Column("c", INTEGER, nullable=False),
        Column("f", INTEGER, nullable=False),
        Column("a", TEXT),
    ]
    if note:
        r_columns.append(Column("note", TEXT))
    database.create_relation("r", r_columns)
    database.create_relation(
        "s",
        [
            Column("d", INTEGER, nullable=False),
            Column("g", INTEGER, nullable=False),
            Column("e", TEXT),
        ],
    )
    if selection_indexes:
        database.create_index("r_f", "r", ["f"])
    database.create_index("r_c", "r", ["c"])
    database.create_index("s_d", "s", ["d"])
    if selection_indexes:
        database.create_index("s_g", "s", ["g"])
    for i in range(rows_r):
        values = (i, i % n_c, i % n_f, f"a{i}")
        database.insert("r", values + ("seed",) if note else values)
    for j in range(rows_s):
        database.insert("s", (j % n_c, j % n_g, f"e{j}"))
    return database


def strategy_for_seed(seed: int) -> MaintenanceStrategy:
    """Odd seeds maintain through the auxiliary index, even seeds by
    delta join, so a seed sweep covers both maintenance paths."""
    return MaintenanceStrategy.AUX_INDEX if seed % 2 else MaintenanceStrategy.DELTA_JOIN


def attach_view(
    database: Database,
    template: QueryTemplate,
    strategy: MaintenanceStrategy = MaintenanceStrategy.DELTA_JOIN,
    tuples_per_entry: int = 3,
    max_entries: int = 8,
    aux_index: bool = True,
    upper_bound_bytes: int | None = None,
) -> PMVManager:
    """A manager with one PMV over ``template``."""
    manager = PMVManager(database, maintenance_strategy=strategy)
    manager.create_view(
        template,
        Discretization(template),
        tuples_per_entry=tuples_per_entry,
        max_entries=max_entries,
        aux_index_columns=("r.a", "s.e") if aux_index else (),
        upper_bound_bytes=upper_bound_bytes,
    )
    return manager


GEOMETRY = {"buffer_pool_pages": 64, "page_size": 1024}
"""Page geometry of :func:`build_world` (a replay must use the same)."""


def build_world(seed: int) -> tuple[Database, PMVManager, QueryTemplate]:
    """The concurrent drills' world: an in-memory WAL, ``r.note``, and a
    view maintained by :func:`strategy_for_seed`."""
    database = build_rs(Database(wal=WriteAheadLog(), **GEOMETRY), 60, 24, note=True)
    template = rs_template("sq")
    manager = attach_view(
        database, template, strategy_for_seed(seed), upper_bound_bytes=4096
    )
    return database, manager, template


def bind(template: QueryTemplate, f: int, g: int):
    return template.bind(
        [EqualityDisjunction("r.f", [f]), EqualityDisjunction("s.g", [g])]
    )


def random_binding(template: QueryTemplate, rng: random.Random):
    """A uniform binding over the default domains (draws ``f`` then ``g``)."""
    f = rng.randrange(DOMAINS[1])
    return bind(template, f, rng.randrange(DOMAINS[2]))


class Cluster:
    """Primary, two caught-up standbys with mirrored views, serving gate
    and failover coordinator, all on the fake clock ``clock[0]``.

    The standbys get the primary's page geometry (replay addresses rows
    physically).  A drill that wants a promotion advances ``clock[0]``
    past :data:`LEASE_TTL` first.
    """

    def __init__(self, database: Database, manager: PMVManager):
        self.clock = [0.0]
        self.primary = PrimaryNode(
            database, manager=manager, clock=lambda: self.clock[0]
        )
        self.replicas = [
            ReplicaNode(
                f"replica-{n}",
                buffer_pool_pages=database.buffer_pool.capacity,
                page_size=database.disk.page_size,
            )
            for n in (1, 2)
        ]
        for replica in self.replicas:
            self.primary.attach_replica(replica)
        self.primary.ship()  # DDL + seed rows reach the standbys
        for replica in self.replicas:
            replica.mirror_views(manager)
        self.gate = ServingGate(manager)
        self.coordinator = FailoverCoordinator(
            self.primary,
            self.replicas,
            gate=self.gate,
            heartbeat_interval=HEARTBEAT_INTERVAL,
            lease_ttl=LEASE_TTL,
            clock=lambda: self.clock[0],
        )
