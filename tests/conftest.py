"""Shared fixtures: a small two-relation database with the Eqt template
(Figure 1 of the paper) and a mini TPC-R environment."""

from __future__ import annotations

import pytest

from repro.core import Discretization, PartialMaterializedView, PMVExecutor
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
)
from repro.engine.row import Row
from repro.workload import TPCRConfig, load_tpcr


@pytest.fixture
def db() -> Database:
    """An empty database with default settings."""
    return Database()


@pytest.fixture
def eqt_db() -> Database:
    """The Figure 1 schema: r(id, c, f, a) join s(d, g, e) on r.c = s.d,
    with indexes on every selection/join attribute, loaded with a small
    deterministic data set."""
    database = Database()
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
    for i in range(120):
        database.insert("r", (i, i % 12, i % 6, f"a{i}"))
    for j in range(60):
        database.insert("s", (j % 12, j % 5, f"e{j}"))
    return database


@pytest.fixture
def eqt(eqt_db: Database) -> QueryTemplate:
    """The Eqt template registered against :func:`eqt_db`."""
    template = QueryTemplate(
        name="Eqt",
        relations=("r", "s"),
        select_list=("r.a", "s.e"),
        joins=(JoinEquality("r", "c", "s", "d"),),
        slots=(
            SelectionSlot("r", "r.f", SlotForm.EQUALITY),
            SelectionSlot("s", "s.g", SlotForm.EQUALITY),
        ),
    )
    eqt_db.register_template(template)
    return template


@pytest.fixture
def eqt_pmv(eqt_db: Database, eqt: QueryTemplate) -> PartialMaterializedView:
    """A CLOCK-managed PMV on Eqt with F=2 and room for 16 bcps."""
    return PartialMaterializedView(
        eqt,
        Discretization(eqt),
        tuples_per_entry=2,
        max_entries=16,
        aux_index_columns=("r.a", "s.e"),
    )


@pytest.fixture
def eqt_executor(eqt_db: Database, eqt_pmv: PartialMaterializedView) -> PMVExecutor:
    return PMVExecutor(eqt_db, eqt_pmv)


def cached_count(view: PartialMaterializedView, key) -> int:
    """How many tuples ``view`` holds for bcp ``key`` (0 when not resident)."""
    return len(view.lookup(key) or ())


def eqt_query(template: QueryTemplate, fs, gs):
    """Bind an Eqt query selecting the given f and g values."""
    return template.bind(
        [EqualityDisjunction("r.f", list(fs)), EqualityDisjunction("s.g", list(gs))]
    )


@pytest.fixture
def tiny_tpcr() -> Database:
    """A very small TPC-R database (downscale ×5000) with indexes."""
    database = Database(buffer_pool_pages=128)
    load_tpcr(
        database,
        TPCRConfig(
            scale_factor=1.0,
            downscale=5000,
            seed=7,
            distinct_order_dates=20,
            suppliers=8,
            nations=4,
        ),
    )
    return database


def brute_force_eqt(database: Database, fs, gs) -> list[tuple]:
    """Oracle: the Eqt query answer computed by nested loops over the
    base relations, as (a, e, f, g) tuples in Ls' order."""
    r_rows = list(database.catalog.relation("r").scan_rows())
    s_rows = list(database.catalog.relation("s").scan_rows())
    return sorted(
        (r["a"], s["e"], r["f"], s["g"])
        for r in r_rows
        for s in s_rows
        if r["c"] == s["d"] and r["f"] in fs and s["g"] in gs
    )


def plan_rows(plan) -> list[Row]:
    """Everything ``plan`` yields through its column-batch path, as rows
    of its output schema."""
    schema = plan.root.schema
    return [
        Row(values, schema)
        for batch in plan.execute_column_batches()
        for values in batch.tuples()
    ]
