"""The reference model: parity with the engine over every plan shape,
the import boundary that keeps it independent, and the plants it
catches because it shares no code with the engine.

Parity is a property, not a definition: where the model and
``Database.run`` disagree, the engine is fixed, never the model.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import check
from repro.check import (
    InvariantViolation,
    Replay,
    check_answers,
    check_view_against_database,
    evaluate,
    record_answer,
    tables_of,
    true_answer,
)
from repro.core.discretize import BasicIntervals, Discretization
from repro.core.maintenance import compute_delta_join
from repro.core.manager import PMVManager
from repro.engine import (
    Column,
    Database,
    EqualityDisjunction,
    FLOAT,
    INTEGER,
    Interval,
    IntervalDisjunction,
    JoinEquality,
    QueryTemplate,
    SelectionSlot,
    SlotForm,
    TEXT,
    WriteAheadLog,
)
from repro.engine.datatypes import MINUS_INFINITY, PLUS_INFINITY
from repro.engine.index import HashIndex, OrderedIndex

CHECK = Path(check.__file__).parent


# -- parity: Counter(model) == Counter(Database.run) ---------------------------

EQ = SlotForm.EQUALITY
IV = SlotForm.INTERVAL

# Each shape: relations with their columns, indexes (name, relation,
# column, ordered), the template's joins / slots / fixed conditions,
# and the operator its plan must contain.
R = ("r", [Column("f", INTEGER), Column("c", INTEGER), Column("a", TEXT)])
S = ("s", [Column("d", FLOAT), Column("g", INTEGER), Column("e", TEXT)])
RS_JOIN = (JoinEquality("r", "c", "s", "d"),)
SHAPES = {
    "hash-equality-driver": dict(
        relations=(R, S),
        indexes=[("r_f", "r", "f", False), ("s_d", "s", "d", False)],
        joins=RS_JOIN,
        slots=[("r", "r.f", EQ), ("s", "s.g", EQ)],
        explain=["IndexEqualityScan(r via r_f", "IndexNestedLoopJoin(inner=s"],
    ),
    "ordered-interval-driver": dict(
        relations=(R, S),
        indexes=[("r_f", "r", "f", True), ("s_d", "s", "d", False)],
        joins=RS_JOIN,
        slots=[("r", "r.f", IV), ("s", "s.g", EQ)],
        explain=["IndexRangeScan(r via r_f"],
    ),
    "seq-scan-driver": dict(
        relations=(R, S),
        indexes=[("s_d", "s", "d", False)],
        joins=RS_JOIN,
        slots=[("r", "r.f", EQ), ("s", "s.g", IV)],
        explain=["SeqScan(r)"],
    ),
    "hash-join-without-inner-index": dict(
        relations=(R, S),
        indexes=[("r_f", "r", "f", False)],
        joins=RS_JOIN,
        slots=[("r", "r.f", EQ), ("s", "s.g", EQ)],
        explain=["NestedLoopJoin(inner=s hashed on d"],
    ),
    "three-way-redundant-edge": dict(
        relations=(
            ("a", [Column("x", INTEGER), Column("fa", INTEGER)]),
            ("b", [Column("x", FLOAT), Column("y", INTEGER)]),
            ("c", [Column("y", INTEGER), Column("x", INTEGER), Column("fc", INTEGER)]),
        ),
        indexes=[
            ("a_fa", "a", "fa", False),
            ("b_x", "b", "x", False),
            ("c_y", "c", "y", False),
        ],
        joins=(
            JoinEquality("a", "x", "b", "x"),
            JoinEquality("b", "y", "c", "y"),
            JoinEquality("a", "x", "c", "x"),
        ),
        slots=[("a", "a.fa", EQ), ("c", "c.fc", IV)],
        explain=["Filter(a.x=c.x)"],
        # Three equalities to satisfy at once: a smaller domain (the
        # other shapes cover None).
        values={INTEGER: [0, 1], FLOAT: [0, 1.0]},
    ),
    "fixed-conditions": dict(
        relations=(R, S),
        indexes=[("r_f", "r", "f", False), ("s_d", "s", "d", False)],
        joins=RS_JOIN,
        slots=[("r", "r.f", EQ), ("s", "s.g", EQ)],
        fixed=(
            EqualityDisjunction("r.c", [0, 1, None]),
            IntervalDisjunction("s.d", [Interval(0, 1, high_inclusive=True)]),
        ),
        explain=["IndexEqualityScan(r via r_f"],
        # The fixed conditions keep only 0 and 1: draw little else.
        values={INTEGER: [0, 1, None], FLOAT: [0, 1.0, None]},
    ),
}

# Small domains so joins and selections hit; None, and floats equal to
# ints (1 and 1.0 in a FLOAT column), on purpose.
VALUES = {INTEGER: [0, 1, 2, None], FLOAT: [0, 1, 1.0, None], TEXT: ["p", "q"]}
POINTS = [MINUS_INFINITY, 0, 0.5, 1, 2, PLUS_INFINITY]


@st.composite
def intervals(draw):
    """One or two disjoint intervals over ``POINTS``."""
    cuts = sorted(draw(st.sets(st.integers(0, len(POINTS) - 1), min_size=2, max_size=4)))
    out = []
    for low, high in zip(cuts[::2], cuts[1::2]):
        out.append(
            Interval(POINTS[low], POINTS[high], draw(st.booleans()), draw(st.booleans()))
        )
    # Adjacent closed ends would overlap: open the second one's low end.
    if len(out) == 2 and out[0].high == out[1].low:
        first, second = out
        out[1] = Interval(second.low, second.high, False, second.high_inclusive)
    return out


def _condition(draw, column: str, form: SlotForm, values: list, present: list):
    if form is EQ:
        # Values the column holds are drawn as often as the whole domain,
        # so the selection keeps rows to join.
        value = st.sampled_from(values)
        if present:
            value = st.sampled_from(present) | value
        chosen = st.lists(value, min_size=1, max_size=3, unique=True)
        return EqualityDisjunction(column, draw(chosen))
    around = intervals()
    points = [v for v in present if v is not None]
    if points:
        # Likewise a point interval on a value the column holds.
        around = st.sampled_from(points).map(lambda v: [Interval(v, v, True, True)]) | around
    return IntervalDisjunction(column, draw(around))


@st.composite
def worlds(draw, shape: dict):
    """(database, query) of one shape, with drawn rows and bindings."""
    database = Database()
    domains = {**VALUES, **shape.get("values", {})}
    ordered = {(rel, col) for _, rel, col, is_ordered in shape["indexes"] if is_ordered}
    for name, columns in shape["relations"]:
        database.create_relation(name, columns)
    for index, relation, column, is_ordered in shape["indexes"]:
        database.create_index(index, relation, [column], ordered=is_ordered)
    # Join partners: a column joined to one of an earlier relation also
    # draws from the keys that column took, so joins hit.
    partners = {}
    for join in shape["joins"]:
        partners.setdefault((join.right_relation, join.right_column), []).append(
            (join.left_relation, join.left_column)
        )
    taken = {}
    for name, columns in shape["relations"]:
        fields = []
        for col in columns:
            domain = domains[col.dtype]
            # An ordered index cannot hold NULL keys.
            if (name, col.name) in ordered:
                domain = [v for v in domain if v is not None]
            keys = [
                v
                for v in domain
                if v is not None
                and any(v in taken.get(p, ()) for p in partners.get((name, col.name), ()))
            ]
            field = st.sampled_from(domain)
            fields.append(st.sampled_from(keys) | field if keys else field)
        row = st.tuples(*fields)
        # A drawn count, not st.lists: lists stay short and joins empty.
        # Empty last: hypothesis favours the first element, and an empty
        # relation joins nothing.
        for _ in range(draw(st.sampled_from((*range(1, 11), 0)))):
            values = draw(row)
            database.insert(name, values)
            for col, value in zip(columns, values):
                taken.setdefault((name, col.name), set()).add(value)
    template = QueryTemplate(
        "shape",
        tuple(name for name, _ in shape["relations"]),
        tuple(f"{name}.{columns[-1].name}" for name, columns in shape["relations"]),
        shape["joins"],
        tuple(SelectionSlot(rel, col, form) for rel, col, form in shape["slots"]),
        shape.get("fixed", ()),
    )
    conditions = []
    for rel, column, form in shape["slots"]:
        dtype = database.catalog.relation(rel).schema.column(column).dtype
        values = domains[dtype]
        if (rel, column.split(".", 1)[1]) in ordered:
            values = [v for v in values if v is not None]
        present = [v for v in values if v in taken.get((rel, column.split(".", 1)[1]), ())]
        conditions.append(_condition(draw, column, form, values, present))
    return database, template.bind(conditions)


@pytest.mark.parametrize("shape", SHAPES, ids=list(SHAPES))
def test_model_matches_the_engine(shape):
    spec = SHAPES[shape]
    answered = []

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(worlds(spec))
    def parity(world):
        database, query = world
        explain = database.plan(query).explain()
        for operator in spec["explain"]:
            assert operator in explain
        engine = Counter(tuple(row.values) for row in database.run(query))
        assert true_answer(database, query) == engine
        answered.append(bool(engine))

    parity()
    assert sum(answered) >= 5, f"only {sum(answered)} examples joined anything"


def test_none_join_keys_join_nothing():
    """SQL's rule, in the engine as in the model: ``None`` joins nothing."""
    database = Database()
    database.create_relation("r", R[1])
    database.create_relation("s", S[1])
    database.create_index("r_f", "r", ["f"])
    database.insert("r", (1, None, "p"))
    database.insert("s", (None, 1, "q"))
    template = QueryTemplate(
        "nulls",
        ("r", "s"),
        ("r.a", "s.e"),
        RS_JOIN,
        (SelectionSlot("r", "r.f", EQ), SelectionSlot("s", "s.g", EQ)),
    )
    query = template.bind(
        [EqualityDisjunction("r.f", [1]), EqualityDisjunction("s.g", [1])]
    )
    for index in (None, "hash"):
        if index:
            database.create_index("s_d", "s", ["d"])
        assert database.run(query) == []
        assert true_answer(database, query) == Counter()
    # Maintenance's delta join agrees: the r row joins no s row.
    (r_row,) = database.catalog.relation("r").scan_rows()
    assert compute_delta_join(database, template, "r", r_row) == []


def test_full_template_result_is_the_containing_view():
    database = check.build_rs(Database(), 24, 12)
    template = check.rs_template("tq")
    full = evaluate(tables_of(database, template.relations), template)
    by_binding = Counter()
    for f in range(4):
        for g in range(3):
            by_binding += true_answer(database, check.bind(template, f, g))
    assert full == by_binding and sum(full.values()) > 0


# -- the import boundary --------------------------------------------------------

ENGINE_LOGIC = {
    "repro.engine.planner",
    "repro.engine.operators",
    "repro.engine.index",
    "repro.engine.columns",
    "repro.engine.predicate",
}
EXACT_CALLS = {"matches", "value_test", "contains_value", "plan", "run"}
CALL_PREFIXES = ("probe", "execute")


def _violations(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            modules += [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", ""))
            if name in EXACT_CALLS or name.startswith(CALL_PREFIXES):
                found.append(f"{path.name}:{node.lineno} calls {name}()")
            continue
        else:
            continue
        found.extend(
            f"{path.name}:{node.lineno} imports {module}"
            for module in modules
            if module in ENGINE_LOGIC
        )
    return found


@pytest.mark.parametrize("module", ["model.py", "oracle.py"])
def test_the_judge_shares_no_query_logic_with_the_engine(module):
    assert _violations(CHECK / module) == []


def test_the_model_imports_only_the_infinity_sentinels():
    tree = ast.parse((CHECK / "model.py").read_text(encoding="utf-8"))
    imported = {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    }
    assert {m for m in imported if m.startswith("repro")} == {"repro.engine.datatypes"}


def test_the_boundary_check_sees_a_forbidden_use(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "from repro.engine.predicate import Interval\n"
        "def truth(db, q, c, i):\n"
        "    i.probe(1)\n"
        "    return db.run(q), c.matches(q)\n",
        encoding="utf-8",
    )
    assert len(_violations(planted)) == 4


# -- plants the engine's own truth could not see ---------------------------------


@pytest.fixture
def duplicate_postings(monkeypatch):
    """Every probe of the join index ``s_d`` returns its first posting
    twice: the executor's index nested-loop join and the delta join
    that maintenance runs both double the same tuple."""
    probe = HashIndex.probe

    def doubled(self, key):
        row_ids = probe(self, key)
        return row_ids + row_ids[:1] if self.name == "s_d" else row_ids

    monkeypatch.setattr(HashIndex, "probe", doubled)


@pytest.fixture
def exclusive_low_bound(monkeypatch):
    """An off-by-one: range probes treat an inclusive low bound as open."""
    probe_range = OrderedIndex.probe_range

    def off_by_one(self, low, high, low_inclusive=False, high_inclusive=False):
        return probe_range(self, low, high, False, high_inclusive)

    monkeypatch.setattr(OrderedIndex, "probe_range", off_by_one)


def _rs_world():
    """Room for every tuple of a bcp, so a doubled one is cached too."""
    database = check.build_rs(Database(wal=WriteAheadLog()), 48, 24)
    template = check.rs_template("tq")
    manager = check.attach_view(database, template, tuples_per_entry=64)
    return database, manager, template


def test_view_check_catches_a_shared_index_bug(duplicate_postings):
    database, manager, template = _rs_world()
    query = check.bind(template, 1, 1)
    manager.execute(query)
    (view,) = [managed.view for managed in manager.managed()]
    cached = Counter(row for _, rows in view.entries() for row in rows)
    assert max(cached.values()) > 1, "the plant left no duplicate in the view"
    with pytest.raises(InvariantViolation, match="phantom"):
        check_view_against_database(database, view)


def test_answer_rule_catches_duplicate_postings(duplicate_postings):
    database, manager, template = _rs_world()
    _, answer = record_answer("dup", check.bind(template, 1, 1), database, manager.execute)
    assert answer.complete
    violations = check_answers([answer], Replay(database.wal.records()))
    assert [v.kind for v in violations] == ["phantom"]


def test_answer_rule_catches_a_range_off_by_one(exclusive_low_bound):
    database = check.build_rs(
        Database(wal=WriteAheadLog()), 48, 24, selection_indexes=False
    )
    database.create_index("r_f_ord", "r", ["f"], ordered=True)
    template = QueryTemplate(
        "rq",
        ("r", "s"),
        ("r.a", "s.e"),
        RS_JOIN,
        (SelectionSlot("r", "r.f", IV), SelectionSlot("s", "s.g", EQ)),
    )
    manager = PMVManager(database)
    manager.create_view(
        template,
        Discretization(template, {"r.f": BasicIntervals([1, 2, 3])}),
        tuples_per_entry=3,
        max_entries=8,
    )
    query = template.bind(
        [
            IntervalDisjunction("r.f", [Interval(1, 3, low_inclusive=True)]),
            EqualityDisjunction("s.g", [0]),
        ]
    )
    assert "IndexRangeScan(r via r_f_ord" in database.plan(query).explain()
    _, answer = record_answer("range", query, database, manager.execute)
    assert answer.complete
    violations = check_answers([answer], Replay(database.wal.records()))
    assert [v.kind for v in violations] == ["missing"]


def test_a_drill_reports_the_plant_as_a_violation(duplicate_postings):
    from repro.bench import stress

    outcome = stress.run(0, "sched")
    assert not outcome.ok
    assert any(v.startswith(("phantom:", "missing:")) for v in outcome.violations)
