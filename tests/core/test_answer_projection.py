"""Projecting an answer to the user's select list Ls.

``PMVQueryResult.user_values()`` resolves column positions once per row
schema and ``user_rows()`` wraps it; the wire envelope carries the
value tuples.  These tests pin the values against the per-row
``Row.project`` reference and count the schemas built per answer.
"""

from __future__ import annotations

import pytest

from repro.core import Discretization, PartialMaterializedView, PMVExecutor
from repro.engine import Column, Database, EqualityDisjunction, INTEGER, TEXT
from repro.engine.row import Row
from repro.engine.schema import Schema
from repro.net import protocol
from repro.workload.templates import make_eqt
from tests.conftest import eqt_query

DENSE = 150
"""Rows of the dense answer: 15 r-rows join 10 s-rows in one bcp."""

IDENTITY_LS = ("r.f", "s.g", "r.a", "s.e")
"""A select list that already holds both slot columns: ``Ls' == Ls``."""


def executor_for(database: Database, select_list, tuples_per_entry: int = 2):
    template = make_eqt(select_list=select_list, name=f"Eqt{len(select_list)}")
    database.register_template(template)
    view = PartialMaterializedView(
        template,
        Discretization(template),
        tuples_per_entry=tuples_per_entry,
        max_entries=16,
    )
    return template, PMVExecutor(database, view)


def dense_database() -> Database:
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
    for i in range(15):
        database.insert("r", (i, 0, 0, f"a{i}"))
    for j in range(10):
        database.insert("s", (0, 0, f"e{j}"))
    return database


class TestAgainstPerRowProject:
    def test_eqt_values_and_lookups_match(self, eqt_db, eqt, eqt_executor):
        """Ls = (r.a, s.e) is not Ls': every row is really projected,
        partial rows (view schema) and remaining rows (plan schema)."""
        eqt_executor.execute(eqt_query(eqt, [1, 3], [2, 4]))
        result = eqt_executor.execute(eqt_query(eqt, [1, 3], [2, 4]))
        assert result.partial_rows and result.remaining_rows
        names = eqt.select_list
        reference = [row.project(names) for row in result.all_rows()]
        rows = result.user_rows()
        assert result.user_values() == [row.values for row in reference]
        assert [row.values for row in rows] == [row.values for row in reference]
        for new, old in zip(rows, reference):
            for name in (*names, "a", "e", 0, 1):
                assert new[name] == old[name]
            assert new.as_dict() == old.as_dict()

    def test_one_column_select_list_yields_one_tuples(self, eqt_db):
        template, executor = executor_for(eqt_db, ("r.a",))
        query = eqt_query(template, [1], [2])
        executor.execute(query)
        result = executor.execute(query)
        values = result.user_values()
        assert values
        assert all(isinstance(v, tuple) and len(v) == 1 for v in values)
        assert [row.values for row in result.user_rows()] == values
        assert values == [row.project(("r.a",)).values for row in result.all_rows()]


class TestAllocationGuard:
    """The tripwire against per-row allocation on the answer path: a
    150-row all-hit answer builds at most one Schema, none when the
    projection is the identity, and the wire encoding builds no Row."""

    @pytest.mark.parametrize(
        "select_list, schemas_allowed", [(IDENTITY_LS, 0), (("r.a", "s.e"), 1)]
    )
    def test_schemas_built_per_answer(self, monkeypatch, select_list, schemas_allowed):
        template, executor = executor_for(
            dense_database(), select_list, tuples_per_entry=2 * DENSE
        )
        query = eqt_query(template, [0], [0])
        executor.execute(query)
        result = executor.execute(query)
        assert len(result.partial_rows) == DENSE and not result.remaining_rows

        schemas, rows_built = [], []
        schema_init, row_init = Schema.__init__, Row.__init__

        def counting_schema(self, *args, **kwargs):
            schemas.append(1)
            schema_init(self, *args, **kwargs)

        def counting_row(self, *args, **kwargs):
            rows_built.append(1)
            row_init(self, *args, **kwargs)

        monkeypatch.setattr(Schema, "__init__", counting_schema)
        monkeypatch.setattr(Row, "__init__", counting_row)
        envelope = protocol.encode_result(result)
        assert not rows_built
        rows = result.user_rows()
        monkeypatch.undo()

        assert len(schemas) == schemas_allowed
        assert envelope["rows"] == [row.values for row in rows]
        if not schemas_allowed:
            assert all(a is b for a, b in zip(rows, result.partial_rows))
