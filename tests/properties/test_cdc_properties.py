"""Property: async maintenance is a bounded-stale refinement of eager.

Two identical worlds receive the same DML stream in lockstep: world A
maintains its PMV asynchronously (a drain reading the log at
trace-controlled points), world E eagerly at write time.  Three
properties must hold at every query:

- **convergence equivalence** — whenever A's feed is fully drained,
  A's answer equals E's answer equals the brute-force truth, exactly;
- **no lost tuples** — mid-flight (feed not drained), every tuple of
  the *current* truth appears in A's answer with at least its true
  multiplicity;
- **the staleness stamp is a true upper bound** — every tuple A serves
  was a true result in some history state no older than the stamp
  claims: answer ⊆ ∪ truth(L) for L in [applied_lsn, now], where the
  stamp is ``now − applied_lsn``.

History states are exact base-table snapshots taken after every DML
op, so the bound check replays real states, not an approximation.
"""

from hypothesis import given, settings, strategies as st

from repro.cdc import HeavyLightSplitter
from repro.core import (
    Discretization,
    MaintenanceStrategy,
    PartialMaterializedView,
    PMVExecutor,
    PMVMaintainer,
)
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

operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("query"),
            st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True),
            st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True),
        ),
        st.tuples(st.just("insert"), st.integers(0, 7), st.integers(0, 4)),
        st.tuples(st.just("delete"), st.integers(0, 30), st.just(0)),
        st.tuples(st.just("update"), st.integers(0, 30), st.integers(0, 4)),
        st.tuples(st.just("drain"), st.integers(1, 6), st.just(0)),
        st.tuples(st.just("converge"), st.just(0), st.just(0)),
    ),
    min_size=4,
    max_size=22,
)


def make_template():
    return QueryTemplate(
        "Eqt",
        ("r", "s"),
        ("r.a", "s.e"),
        (JoinEquality("r", "c", "s", "d"),),
        (
            SelectionSlot("r", "r.f", SlotForm.EQUALITY),
            SelectionSlot("s", "s.g", SlotForm.EQUALITY),
        ),
    )


def build_db():
    db = Database(wal=WriteAheadLog())
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
    for i in range(24):
        db.insert("r", (i, i % 6, i % 5, f"a{i}"))
    for j in range(16):
        db.insert("s", (j % 6, j % 4, f"e{j}"))
    return db


def build_async_world():
    db = build_db()
    template = make_template()
    db.register_template(template)
    view = PartialMaterializedView(
        template,
        Discretization(template),
        tuples_per_entry=2,
        max_entries=6,
        aux_index_columns=("r.a", "s.e"),
    )
    executor = PMVExecutor(db, view)
    pmv_maintainer = PMVMaintainer(
        db, view, strategy=MaintenanceStrategy.DELTA_JOIN
    ).attach()
    from repro.cdc import AsyncMaintainer

    drain = AsyncMaintainer(db, splitter=HeavyLightSplitter({"r.f": {0, 1}}))
    drain.register(pmv_maintainer)
    return db, template, view, executor, drain


def build_eager_world():
    db = build_db()
    template = make_template()
    db.register_template(template)
    view = PartialMaterializedView(
        template,
        Discretization(template),
        tuples_per_entry=2,
        max_entries=6,
        aux_index_columns=("r.a", "s.e"),
    )
    executor = PMVExecutor(db, view)
    PMVMaintainer(db, view, strategy=MaintenanceStrategy.DELTA_JOIN).attach()
    return db, template, view, executor


def snapshot(db):
    return (
        tuple(tuple(r.values) for r in db.catalog.relation("r").scan_rows()),
        tuple(tuple(r.values) for r in db.catalog.relation("s").scan_rows()),
    )


def truth_of(snap, fs, gs):
    """Brute-force counting multiset for the bindings on one snapshot.

    Tuples carry the expanded select list ``Ls'`` (user columns plus
    the slot columns), matching what ``all_rows`` delivers.
    """
    r_rows, s_rows = snap
    counts = {}
    for rid, c, f, a in r_rows:
        if f not in fs:
            continue
        for d, g, e in s_rows:
            if c == d and g in gs:
                item = (a, e, f, g)
                counts[item] = counts.get(item, 0) + 1
    return counts


def as_counts(rows):
    counts = {}
    for item in rows:
        counts[item] = counts.get(item, 0) + 1
    return counts


def apply_dml(db, op, x, y, next_id):
    """One deterministic single-row DML (targets rows by id value so
    both worlds pick the identical victim)."""
    if op == "insert":
        db.insert("r", (next_id, x % 6, y, f"new{next_id}"))
        return True
    live = list(db.catalog.relation("r").scan())
    if not live:
        return False
    row_id, row = sorted(live, key=lambda pair: pair[1]["id"])[x % len(live)]
    if op == "delete":
        db.delete("r", row_id)
    else:
        db.update("r", row_id, f=y)
    return True


@given(operations)
@settings(max_examples=20, deadline=None)
def test_async_world_is_bounded_stale_refinement_of_eager(trace):
    a_db, a_t, a_view, a_ex, drain = build_async_world()
    e_db, e_t, e_view, e_ex = build_eager_world()
    base = a_db.current_lsn()  # the drain's cursor starts at the setup's end
    history = [snapshot(a_db)]  # history[lsn - base] = state after that LSN
    next_id = 1000
    for op, x, y in trace:
        if op == "drain":
            drain.drain(max_records=x)
        elif op == "converge":
            drain.drain_to_convergence()
        elif op == "query":
            fs, gs = set(x), set(y)
            binds = [
                EqualityDisjunction("r.f", sorted(fs)),
                EqualityDisjunction("s.g", sorted(gs)),
            ]
            a_result = a_ex.execute(a_t.bind(list(binds)))
            got = as_counts(tuple(r.values) for r in a_result.all_rows())
            assert a_result.complete
            now = a_db.current_lsn()
            stamp = a_result.staleness
            assert stamp == now - a_result.applied_lsn
            assert stamp <= now - a_view.applied_lsn or stamp == 0
            # No lost tuples: current truth ⊆ answer.
            current = truth_of(history[-1], fs, gs)
            for item, count in current.items():
                assert got.get(item, 0) >= count, (
                    f"lost current tuple {item!r}"
                )
            # Stamp is a true upper bound: everything served was true
            # in some state no older than the stamp claims.
            window = {}
            for lsn in range(a_result.applied_lsn, now + 1):
                for item, count in truth_of(history[lsn - base], fs, gs).items():
                    window[item] = max(window.get(item, 0), count)
            for item, count in got.items():
                assert count <= window.get(item, 0), (
                    f"served {item!r} x{count} never true within the "
                    f"stamped window (stamp {stamp})"
                )
            # Convergence equivalence against the eager twin.
            if stamp == 0:
                e_result = e_ex.execute(e_t.bind(list(binds)))
                assert got == as_counts(
                    tuple(r.values) for r in e_result.all_rows()
                )
            a_view.check_invariants()
            e_view.check_invariants()
        else:
            if apply_dml(a_db, op, x, y, next_id):
                apply_dml(e_db, op, x, y, next_id)
                history.append(snapshot(a_db))
            if op == "insert":
                next_id += 1
    # Final convergence: the two worlds collapse to the same answers.
    drain.drain_to_convergence()
    assert drain.lag(a_view) == 0
    binds = [
        EqualityDisjunction("r.f", [0, 1, 2, 3, 4]),
        EqualityDisjunction("s.g", [0, 1, 2, 3]),
    ]
    a_final = a_ex.execute(a_t.bind(list(binds)))
    e_final = e_ex.execute(e_t.bind(list(binds)))
    assert as_counts(tuple(r.values) for r in a_final.all_rows()) == as_counts(
        tuple(r.values) for r in e_final.all_rows()
    )
    assert a_final.staleness == 0


@given(operations)
@settings(max_examples=15, deadline=None)
def test_freshness_bound_never_serves_beyond_it(trace):
    """With a freshness bound set, every non-bypassed answer's stamp is
    within the bound, and bypassed answers are exact."""
    a_db, a_t, a_view, a_ex, drain = build_async_world()
    a_ex.freshness_bound = 2
    history = [snapshot(a_db)]
    next_id = 2000
    for op, x, y in trace:
        if op == "drain":
            drain.drain(max_records=x)
        elif op == "converge":
            drain.drain_to_convergence()
        elif op == "query":
            fs, gs = set(x), set(y)
            binds = [
                EqualityDisjunction("r.f", sorted(fs)),
                EqualityDisjunction("s.g", sorted(gs)),
            ]
            result = a_ex.execute(a_t.bind(list(binds)))
            if result.metrics.bypassed_stale:
                assert result.staleness == 0
                got = as_counts(tuple(r.values) for r in result.all_rows())
                assert got == truth_of(history[-1], fs, gs)
            else:
                assert result.staleness <= 2
        else:
            if apply_dml(a_db, op, x, y, next_id):
                history.append(snapshot(a_db))
            if op == "insert":
                next_id += 1
