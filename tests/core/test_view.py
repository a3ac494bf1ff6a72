"""Unit tests for the PartialMaterializedView structure."""

import pytest

from repro.core.view import (
    PartialMaterializedView,
    _Entry,
    entries_for_budget,
)
from repro.core.discretize import BasicIntervals, Discretization
from repro.core.replacement import TwoQueuePolicy
from repro.core.maintenance import template_result_schema
from repro.engine import (
    Column,
    Database,
    INTEGER,
    JoinEquality,
    QueryTemplate,
    Row,
    SelectionSlot,
    SlotForm,
    TEXT,
)
from repro.errors import ViewCapacityError, ViewDefinitionError
from tests.conftest import cached_count


@pytest.fixture
def setup(eqt_db, eqt):
    schema = template_result_schema(eqt, eqt_db)
    return eqt_db, eqt, schema


def make_view(eqt, F=2, entries=4, policy="clock", aux=()):
    return PartialMaterializedView(
        eqt,
        Discretization(eqt),
        tuples_per_entry=F,
        max_entries=entries,
        policy=policy,
        aux_index_columns=aux,
    )


def add_tuple(view, key, row):
    return view.refill(key, [row.values], row.schema)


def result_row(schema, a, e, f, g):
    return Row((a, e, f, g), schema)


class TestBudget:
    def test_entries_for_budget_paper_example(self):
        # L=10K, F=2, At=50B -> a bit over 1MB with the 4% key overhead.
        entries = entries_for_budget(1_050_000, tuples_per_entry=2, avg_tuple_bytes=50)
        assert 9_500 <= entries <= 10_100

    def test_budget_too_small_rejected(self):
        with pytest.raises(ViewCapacityError):
            entries_for_budget(10, tuples_per_entry=5, avg_tuple_bytes=50)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ViewCapacityError):
            entries_for_budget(0, 1, 1)


class TestConstruction:
    def test_invalid_f_rejected(self, setup):
        _, eqt, _ = setup
        with pytest.raises(ViewCapacityError):
            make_view(eqt, F=0)

    def test_policy_capacity_mismatch_rejected(self, setup):
        _, eqt, _ = setup
        with pytest.raises(ViewCapacityError):
            PartialMaterializedView(
                eqt, Discretization(eqt), 2, max_entries=8, policy=TwoQueuePolicy(4)
            )

    def test_aux_column_must_be_in_expanded_list(self, setup):
        _, eqt, _ = setup
        with pytest.raises(ViewDefinitionError):
            make_view(eqt, aux=("r.zzz",))

    def test_wrong_discretization_rejected(self, setup):
        _, eqt, _ = setup
        other = QueryTemplate(
            "x",
            ("r",),
            ("r.a",),
            (),
            (SelectionSlot("r", "r.f", SlotForm.EQUALITY),),
        )
        with pytest.raises(ViewDefinitionError):
            PartialMaterializedView(eqt, Discretization(other), 2, 4)


class TestKeyRecovery:
    def test_key_of_row_equality_slots(self, setup):
        _, eqt, schema = setup
        view = make_view(eqt)
        assert view.key_of_row(result_row(schema, "a1", "e1", 3, 4)) == (3, 4)

    def test_key_of_row_interval_slot(self, eqt_db):
        template = QueryTemplate(
            "ivt",
            ("r", "s"),
            ("r.a", "s.e"),
            (JoinEquality("r", "c", "s", "d"),),
            (
                SelectionSlot("r", "r.f", SlotForm.EQUALITY),
                SelectionSlot("s", "s.g", SlotForm.INTERVAL),
            ),
        )
        disc = Discretization(template, {"s.g": BasicIntervals([2, 4])})
        view = PartialMaterializedView(template, disc, 2, 4)
        schema = template_result_schema(template, eqt_db)
        assert view.key_of_row(result_row(schema, "a", "e", 1, 3)) == (1, 1)


class TestStorage:
    def test_add_requires_residency(self, setup):
        _, eqt, schema = setup
        view = make_view(eqt)
        assert not add_tuple(view, (1, 2), result_row(schema, "a", "e", 1, 2))
        view.reference((1, 2))
        assert add_tuple(view, (1, 2), result_row(schema, "a", "e", 1, 2))
        assert cached_count(view, (1, 2)) == 1

    def test_f_bound_enforced(self, setup):
        _, eqt, schema = setup
        view = make_view(eqt, F=2)
        view.reference((1, 2))
        assert add_tuple(view, (1, 2), result_row(schema, "a1", "e", 1, 2))
        assert add_tuple(view, (1, 2), result_row(schema, "a2", "e", 1, 2))
        assert not add_tuple(view, (1, 2), result_row(schema, "a3", "e", 1, 2))
        assert view.metrics.tuples_rejected_full == 1

    def test_lookup_returns_copy(self, setup):
        _, eqt, schema = setup
        view = make_view(eqt)
        view.reference((1, 2))
        add_tuple(view, (1, 2), result_row(schema, "a", "e", 1, 2))
        cached = view.lookup((1, 2))
        cached.clear()
        assert cached_count(view, (1, 2)) == 1

    def test_lookup_miss_returns_none(self, setup):
        _, eqt, _ = setup
        view = make_view(eqt)
        assert view.lookup((9, 9)) is None

    def test_eviction_drops_tuples(self, setup):
        _, eqt, schema = setup
        view = make_view(eqt, entries=2)
        for f in (1, 2, 3):
            view.reference((f, 0))
            add_tuple(view, (f, 0), result_row(schema, "a", "e", f, 0))
        assert view.entry_count == 2
        assert view.metrics.entries_evicted == 1
        view.check_invariants()

    def test_2q_staged_bcp_stores_nothing(self, setup):
        _, eqt, schema = setup
        view = make_view(eqt, policy="2q")
        result = view.reference((1, 2))
        assert not result.admitted
        assert not add_tuple(view, (1, 2), result_row(schema, "a", "e", 1, 2))
        view.reference((1, 2))  # promotes
        assert add_tuple(view, (1, 2), result_row(schema, "a", "e", 1, 2))

    def test_remove_tuple_recovers_bcp(self, setup):
        _, eqt, schema = setup
        view = make_view(eqt)
        target = result_row(schema, "a", "e", 1, 2)
        view.reference((1, 2))
        add_tuple(view, (1, 2), target)
        assert view.remove_tuple(result_row(schema, "a", "e", 1, 2))
        assert cached_count(view, (1, 2)) == 0
        assert not view.remove_tuple(target)

    def test_discard_entry(self, setup):
        _, eqt, schema = setup
        view = make_view(eqt)
        view.reference((1, 2))
        add_tuple(view, (1, 2), result_row(schema, "a", "e", 1, 2))
        assert view.discard_entry((1, 2))
        assert view.lookup((1, 2)) is None
        assert not view.policy.contains((1, 2))
        view.check_invariants()


class TestSizeAccounting:
    def test_bytes_grow_and_shrink(self, setup):
        _, eqt, schema = setup
        view = make_view(eqt)
        assert view.current_bytes == 0
        view.reference((1, 2))
        after_key = view.current_bytes
        assert after_key > 0
        target = result_row(schema, "a", "e", 1, 2)
        add_tuple(view, (1, 2), target)
        assert view.current_bytes == after_key + target.byte_size()
        view.discard_entry((1, 2))
        assert view.current_bytes == 0


class TestAuxIndexes:
    def test_entries_with_value(self, setup):
        _, eqt, schema = setup
        view = make_view(eqt, aux=("r.a",))
        view.reference((1, 2))
        add_tuple(view, (1, 2), result_row(schema, "hot", "e", 1, 2))
        assert view.entries_with_value("r.a", "hot") == [(1, 2)]
        assert view.entries_with_value("r.a", "cold") == []

    def test_rows_with_value(self, setup):
        _, eqt, schema = setup
        view = make_view(eqt, aux=("r.a",))
        view.reference((1, 2))
        view.reference((3, 2))
        add_tuple(view, (1, 2), result_row(schema, "x", "e1", 1, 2))
        add_tuple(view, (3, 2), result_row(schema, "x", "e2", 3, 2))
        rows = view.rows_with_value("r.a", "x")
        assert len(rows) == 2

    def test_aux_cleaned_on_eviction(self, setup):
        _, eqt, schema = setup
        view = make_view(eqt, entries=1, aux=("r.a",))
        view.reference((1, 2))
        add_tuple(view, (1, 2), result_row(schema, "x", "e", 1, 2))
        view.reference((5, 5))  # evicts (1,2)
        assert view.entries_with_value("r.a", "x") == []

    def test_unindexed_column_raises(self, setup):
        _, eqt, _ = setup
        view = make_view(eqt)
        with pytest.raises(ViewDefinitionError):
            view.entries_with_value("r.a", "x")


class TestInvariantChecker:
    def test_detects_overfull_entry(self, setup):
        _, eqt, schema = setup
        view = make_view(eqt, F=1)
        view.reference((1, 2))
        a, b = (result_row(schema, x, "e", 1, 2).values for x in "ab")
        add_tuple(view, (1, 2), Row(a, schema))
        view._entries[(1, 2)] = _Entry((a, b))  # an entry over F
        with pytest.raises(ViewCapacityError):
            view.check_invariants()

    def test_detects_misfiled_tuple(self, setup):
        _, eqt, schema = setup
        view = make_view(eqt)
        view.reference((1, 2))
        misfiled = result_row(schema, "a", "e", 9, 9)
        view._capture_schema(schema)
        view._entries[(1, 2)] = _Entry((misfiled.values,))
        with pytest.raises(ViewDefinitionError):
            view.check_invariants()
