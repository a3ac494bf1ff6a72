"""Unit tests for Row and RowId."""

import pytest

from repro.engine.datatypes import INTEGER, TEXT
from repro.engine.row import Row, RowId, project_rows, project_values
from repro.engine.schema import Column, Schema


@pytest.fixture
def schema():
    return Schema(
        [Column("id", INTEGER, nullable=False), Column("name", TEXT)],
        relation_name="r",
    )


class TestAccess:
    def test_by_position_and_name(self, schema):
        row = Row((7, "x"), schema)
        assert row[0] == 7
        assert row["name"] == "x"
        assert row["r.id"] == 7

    def test_get_with_default(self, schema):
        row = Row((7, "x"), schema)
        assert row.get("name") == "x"
        assert row.get("missing", "fallback") == "fallback"

    def test_as_dict(self, schema):
        assert Row((7, "x"), schema).as_dict() == {"id": 7, "name": "x"}

    def test_iteration_and_len(self, schema):
        row = Row((7, "x"), schema)
        assert list(row) == [7, "x"]
        assert len(row) == 2


class TestEquality:
    def test_value_equality_ignores_schema(self, schema):
        other_schema = Schema([Column("a", INTEGER), Column("b", TEXT)])
        assert Row((1, "x"), schema) == Row((1, "x"), other_schema)
        assert hash(Row((1, "x"), schema)) == hash(Row((1, "x"), other_schema))

    def test_different_values_not_equal(self, schema):
        assert Row((1, "x"), schema) != Row((2, "x"), schema)

    def test_usable_in_sets(self, schema):
        rows = {Row((1, "x"), schema), Row((1, "x"), schema), Row((2, "y"), schema)}
        assert len(rows) == 2


class TestTransforms:
    def test_project(self, schema):
        row = Row((7, "x"), schema)
        assert project_values([row], ["name"]) == [("x",)]

    def test_project_qualified(self, schema):
        row = Row((7, "x"), schema)
        assert project_values([row], ["r.name", "r.id"]) == [("x", 7)]

    def test_identity_projection_hands_back_the_row_tuple(self, schema):
        row = Row((7, "x"), schema)
        assert project_values([row], ["r.id", "name"])[0] is row.values
        assert project_rows([row], ["r.id", "name"])[0] is row

    def test_replace(self, schema):
        row = Row((7, "x"), schema)
        replaced = row.replace(name="y")
        assert replaced.values == (7, "y")
        assert row.values == (7, "x"), "original must be untouched"

    def test_concat(self, schema):
        other_schema = Schema([Column("e", TEXT)], relation_name="s")
        joined_schema = schema.concat(other_schema)
        joined = Row((7, "x"), schema).concat(Row(("z",), other_schema), joined_schema)
        assert joined.values == (7, "x", "z")
        assert joined["s.e"] == "z"

    def test_byte_size_counts_columns(self, schema):
        assert Row((7, "ab"), schema).byte_size() == 4 + 4
        assert Row((7, None), schema).byte_size() == 4 + 1


class TestRowId:
    def test_equality_and_hash(self):
        assert RowId(1, 2) == RowId(1, 2)
        assert hash(RowId(1, 2)) == hash(RowId(1, 2))
        assert RowId(1, 2) != RowId(1, 3)

    def test_ordering(self):
        assert RowId(1, 5) < RowId(2, 0)
        assert RowId(1, 1) < RowId(1, 2)

    def test_repr(self):
        assert repr(RowId(3, 7)) == "RowId(3, 7)"
        assert repr([RowId(0, 1)]) == "[RowId(0, 1)]"

    def test_compares_in_c(self):
        """A posting-list ``remove`` compares row ids many times per
        delete; none of those comparisons may run Python code."""
        assert RowId.__eq__ is tuple.__eq__
        assert RowId.__hash__ is tuple.__hash__
        assert RowId.__lt__ is tuple.__lt__
        assert RowId(4, 2).page_no == 4 and RowId(4, 2).slot_no == 2
