"""Property: under adversarial workloads the executor's answers equal
references that share no code with it.

One world — data, template, eagerly-maintained view — is driven
through random interleavings of queries and base-table churn.  After
every query the full answer must equal, as a multiset, both the
brute-force join and the reference model (:mod:`repro.check.model`,
which calls no planner, operator or index); the partial rows must be
exactly the cached tuples the query's parts select from the view as it
stood before the query, in probe order; and the view must keep its
structural invariants.
"""

from hypothesis import given, settings, strategies as st

from repro.check import true_answer
from repro.core import (
    Discretization,
    MaintenanceStrategy,
    PartialMaterializedView,
    PMVExecutor,
    PMVMaintainer,
)
from repro.core.discretize import BasicIntervals
from repro.engine import (
    Column,
    Database,
    EqualityDisjunction,
    INTEGER,
    Interval,
    IntervalDisjunction,
    JoinEquality,
    QueryTemplate,
    SelectionSlot,
    SlotForm,
    TEXT,
)
from tests.core.test_columnar_equivalence import check_partials, expected_partials

F_VALUES = st.sampled_from([1, 2, 3])

operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("query"),
            st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True),
            st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True),
        ),
        st.tuples(st.just("insert"), st.integers(0, 7), st.integers(0, 4)),
        st.tuples(st.just("delete"), st.integers(0, 30), st.integers(0, 0)),
        st.tuples(st.just("update"), st.integers(0, 30), st.integers(0, 4)),
    ),
    min_size=3,
    max_size=20,
)

interval_operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("query"),
            st.lists(st.integers(0, 4), min_size=1, max_size=2, unique=True),
            st.tuples(st.integers(0, 3), st.integers(1, 3)),  # (low, span)
        ),
        st.tuples(st.just("insert"), st.integers(0, 7), st.integers(0, 4)),
    ),
    min_size=3,
    max_size=15,
)


def make_template(interval_slot):
    return QueryTemplate(
        "Ivt" if interval_slot else "Eqt",
        ("r", "s"),
        ("r.a", "s.e"),
        (JoinEquality("r", "c", "s", "d"),),
        (
            SelectionSlot("r", "r.f", SlotForm.EQUALITY),
            SelectionSlot(
                "s", "s.g", SlotForm.INTERVAL if interval_slot else SlotForm.EQUALITY
            ),
        ),
    )


def build_world(F, interval_slot=False):
    db = Database()
    db.create_relation(
        "r",
        [
            Column("id", INTEGER, nullable=False),
            Column("c", INTEGER, nullable=False),
            Column("f", INTEGER, nullable=False),
            Column("a", TEXT),
        ],
    )
    db.create_relation(
        "s",
        [
            Column("d", INTEGER, nullable=False),
            Column("g", INTEGER, nullable=False),
            Column("e", TEXT),
        ],
    )
    db.create_index("r_f", "r", ["f"])
    db.create_index("r_c", "r", ["c"])
    db.create_index("s_d", "s", ["d"])
    db.create_index("s_g", "s", ["g"])
    for i in range(32):
        db.insert("r", (i, i % 8, i % 5, f"a{i}"))
    for j in range(20):
        db.insert("s", (j % 8, j % 4, f"e{j}"))
    template = make_template(interval_slot)
    db.register_template(template)
    grids = {"s.g": BasicIntervals([2, 4])} if interval_slot else None
    view = PartialMaterializedView(
        template,
        Discretization(template, grids),
        tuples_per_entry=F,
        max_entries=6,
        aux_index_columns=("r.a", "s.e"),
    )
    executor = PMVExecutor(db, view)
    PMVMaintainer(db, view, strategy=MaintenanceStrategy.DELTA_JOIN).attach()
    return db, template, view, executor


def brute_force(db, fs, g_test):
    r_rows = list(db.catalog.relation("r").scan_rows())
    s_rows = list(db.catalog.relation("s").scan_rows())
    return sorted(
        (r["a"], s["e"], r["f"], s["g"])
        for r in r_rows
        for s in s_rows
        if r["c"] == s["d"] and r["f"] in fs and g_test(s["g"])
    )


def apply_churn(db, op, x, y, next_id):
    if op == "insert":
        db.insert("r", (next_id, x, y, f"new{next_id}"))
    elif op == "delete":
        live = list(db.catalog.relation("r").scan())
        if live:
            row_id, _ = live[x % len(live)]
            db.delete("r", row_id)
    elif op == "update":
        live = list(db.catalog.relation("r").scan())
        if live:
            row_id, _ = live[x % len(live)]
            db.update("r", row_id, f=y)


def execute_and_check(db, view, executor, query, full):
    assert sorted(true_answer(db, query).elements()) == full
    per_group = expected_partials(view, query)
    evicted_before = view.metrics.entries_evicted
    result = executor.execute(query)
    evictions = view.metrics.entries_evicted - evicted_before
    assert result.complete
    assert sorted(tuple(r.values) for r in result.all_rows()) == full
    check_partials(result, per_group, evictions)
    view.check_invariants()


@given(F_VALUES, operations)
@settings(max_examples=25, deadline=None)
def test_columnar_matches_row_pipeline_under_churn(F, trace):
    db, template, view, executor = build_world(F)
    next_id = 1000
    for op, x, y in trace:
        if op == "query":
            fs, gs = x, y
            query = template.bind(
                [EqualityDisjunction("r.f", fs), EqualityDisjunction("s.g", gs)]
            )
            execute_and_check(
                db, view, executor, query,
                brute_force(db, set(fs), lambda g: g in set(gs)),
            )
        else:
            apply_churn(db, op, x, y, next_id)
            next_id += 1
    view.check_invariants()


@given(F_VALUES, interval_operations)
@settings(max_examples=25, deadline=None)
def test_columnar_matches_row_pipeline_on_interval_slots(F, trace):
    """Interval-form s.g: random sub-intervals produce non-basic parts,
    so resident probes run the compiled tuple-position matchers."""
    db, template, view, executor = build_world(F, interval_slot=True)
    next_id = 2000
    for op, x, y in trace:
        if op == "query":
            fs, (low, span) = x, y
            interval = Interval(low, low + span, low_inclusive=True)
            query = template.bind(
                [
                    EqualityDisjunction("r.f", fs),
                    IntervalDisjunction("s.g", [interval]),
                ]
            )
            execute_and_check(
                db, view, executor, query,
                brute_force(db, set(fs), lambda g: low <= g < low + span),
            )
        else:
            apply_churn(db, op, x, y, next_id)
            next_id += 1
