"""The executor's answers, checked against references that share no
code with it.

Every scenario drives one world (data, template, managed view) and
checks each answer against:

- ``oracle()`` — a brute-force nested-loop join over the heap;
- the reference model (:mod:`repro.check.model`), which calls no
  planner, operator or index;
- ``expected_partials()`` — what O2 must deliver, derived from the
  view's contents before the query with ``decompose`` / ``group_parts``
  / ``view.lookup`` and the condition parts' row-level ``matches``.

Per answer: ``partial ⊎ remaining`` is the truth as a multiset (as a
set under ``distinct``), the partial rows are exactly the cached tuples
the query's parts select, in probe order, and a degraded answer is an
explicitly-marked sub-multiset.
"""

import random
import threading
from collections import Counter

import pytest

from repro.check import true_answer
from repro.core import Discretization, PMVManager
from repro.core.decompose import decompose, group_parts
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
    WriteAheadLog,
)

DEFAULT_R = [(i, i % 8, i % 5, f"a{i}") for i in range(40)]
DEFAULT_S = [(j % 8, j % 4, f"e{j}") for j in range(24)]
# Duplicate s rows make the join emit duplicate Ls' tuples.
DUP_S = DEFAULT_S + DEFAULT_S[:8]
# Enough r rows that a query's plan streams more than one batch, so a
# deadline can run out *between* batches.
BIG_R = [(i, i % 8, i % 5, f"a{i}") for i in range(2000)]


def make_db(r_rows, s_rows):
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
    for row in r_rows:
        db.insert("r", row)
    for row in s_rows:
        db.insert("s", row)
    return db


def eqt_template():
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


def ivt_template():
    """Eqt with an *interval-form* slot on s.g: sub-interval queries
    produce non-basic condition parts, exercising the executor's
    compiled tuple-position matchers."""
    return QueryTemplate(
        "Ivt",
        ("r", "s"),
        ("r.a", "s.e"),
        (JoinEquality("r", "c", "s", "d"),),
        (
            SelectionSlot("r", "r.f", SlotForm.EQUALITY),
            SelectionSlot("s", "s.g", SlotForm.INTERVAL),
        ),
    )


def values(rows):
    return [tuple(row.values) for row in rows]


def oracle(db, fs, g_test):
    r_rows = list(db.catalog.relation("r").scan_rows())
    s_rows = list(db.catalog.relation("s").scan_rows())
    return sorted(
        (r["a"], s["e"], r["f"], s["g"])
        for r in r_rows
        for s in s_rows
        if r["c"] == s["d"] and r["f"] in fs and g_test(s["g"])
    )


def is_sub_multiset(got, full):
    return not Counter(got) - Counter(full)


def expected_partials(view, query):
    """Per O1 part group, in probe order: the cached tuples of the
    group's bcp that lie in one of the group's parts — recomputed with
    row-level ``matches`` over ``view.lookup``, not the executor's
    probe."""
    return [
        [
            tuple(row.values)
            for row in view.lookup(group.key) or ()
            if any(part.is_basic or part.matches(row) for part in group.parts)
        ]
        for group in group_parts(decompose(query, view.discretization))
    ]


def check_partials(result, per_group, evictions, distinct=False):
    """``partial_rows`` is the concatenation of the per-group
    expectations.  A group may be missing only when an *earlier*
    group's admission evicted its entry within this very query."""
    got = values(result.partial_rows)
    seen = set()
    at = 0
    for group_rows in per_group:
        if distinct:
            group_rows = [t for t in dict.fromkeys(group_rows) if t not in seen]
        if got[at : at + len(group_rows)] == group_rows:
            at += len(group_rows)
            seen.update(group_rows)
        else:
            assert evictions, f"group {group_rows!r} not delivered in order"
    assert at == len(got), f"undeclared partial rows {got[at:]!r}"
    assert result.metrics.partial_tuples == len(got)


class World:
    """One database, one template, one managed PMV."""

    def __init__(
        self,
        *,
        template_factory=eqt_template,
        grids=None,
        r_rows=DEFAULT_R,
        s_rows=DEFAULT_S,
        F=3,
        entries=8,
        **executor_options,
    ):
        self.db = make_db(r_rows, s_rows)
        self.template = template_factory()
        self.manager = PMVManager(self.db)
        self.view = self.manager.create_view(
            self.template,
            Discretization(self.template, grids),
            tuples_per_entry=F,
            max_entries=entries,
            aux_index_columns=("r.a", "s.e"),
            executor_options=executor_options,
        )
        self.executor = self.manager.executor(self.template.name)

    def run(self, binder, truth, distinct=False, **execute_kwargs):
        """Execute one query and check the whole per-answer contract."""
        query = binder(self.template)
        # Two independent references must agree before judging anyone.
        assert sorted(true_answer(self.db, query).elements()) == truth
        per_group = expected_partials(self.view, query)
        evicted_before = self.view.metrics.entries_evicted
        result = self.executor.execute(query, distinct=distinct, **execute_kwargs)
        evictions = self.view.metrics.entries_evicted - evicted_before
        if result.metrics.bypassed_lock or result.metrics.bypassed_stale:
            per_group = []  # the PMV was not consulted
        check_partials(result, per_group, evictions, distinct)
        got = sorted(values(result.all_rows()))
        expected = sorted(set(truth)) if distinct else truth
        if result.complete:
            assert result.degraded_reason is None
            assert got == expected
        else:
            assert result.degraded_reason in ("deadline-skip", "deadline-abandon")
            assert is_sub_multiset(got, expected), "duplicated or fabricated row"
        self.view.check_invariants()
        return result


def eqt_binder(fs, gs):
    return lambda t: t.bind(
        [EqualityDisjunction("r.f", list(fs)), EqualityDisjunction("s.g", list(gs))]
    )


def eqt_truth(world, fs, gs):
    return oracle(world.db, set(fs), lambda g: g in set(gs))


class TestEqualityWorkload:
    STREAM = [
        ([1, 3], [2]),
        ([1, 3], [2]),  # repeat: resident entries, O1 memo, plan cache
        ([0], [0]),
        ([2, 4], [1, 3]),
        ([4], [3]),
        ([0, 1, 2], [0, 1]),
        ([1, 3], [2]),  # back to the hot query
        ([7], [0]),  # empty answer (no r.f == 7)
    ]

    def test_fixed_stream(self):
        world = World()
        for fs, gs in self.STREAM:
            result = world.run(eqt_binder(fs, gs), eqt_truth(world, fs, gs))
            assert result.complete
        assert world.view.metrics.snapshot()["partial_tuples"] > 0

    def test_randomized_stream(self):
        rng = random.Random(42)
        world = World(F=2, entries=5)  # small view: evictions mid-stream
        skewed_f = [0, 0, 0, 1, 1, 2, 3, 4]  # zipf-ish: hot values repeat
        skewed_g = [0, 0, 1, 1, 2, 3]
        for _ in range(80):
            fs = sorted({rng.choice(skewed_f) for _ in range(rng.randint(1, 3))})
            gs = sorted({rng.choice(skewed_g) for _ in range(rng.randint(1, 2))})
            world.run(eqt_binder(fs, gs), eqt_truth(world, fs, gs))
        assert world.view.metrics.entries_evicted > 0

    def test_distinct_equivalence(self):
        world = World(s_rows=DUP_S)
        for fs, gs in [([1, 3], [2]), ([1, 3], [2]), ([0, 2], [0, 1])]:
            truth = eqt_truth(world, fs, gs)
            assert len(set(truth)) < len(truth), "nothing for distinct to suppress"
            result = world.run(eqt_binder(fs, gs), truth, distinct=True)
            got = values(result.all_rows())
            assert len(got) == len(set(got)), "distinct answer has duplicates"

    def test_duplicate_world_multiset(self):
        # Same duplicate world, distinct=False: the ledger must take
        # its exact DuplicateSuppressor fallback and still deliver the
        # exact multiset, once per tuple.
        world = World(s_rows=DUP_S)
        for fs, gs in [([1, 3], [2]), ([1, 3], [2]), ([0, 2], [0, 1]), ([4], [3])]:
            world.run(eqt_binder(fs, gs), eqt_truth(world, fs, gs))


class CountdownDeadline:
    """Duck-typed deadline: unexpired for the first ``checks`` polls.

    The executor polls ``expired()`` at fixed protocol points (the
    O3-skip checkpoint, then once per batch checkpoint), so a countdown
    pins the degradation point without depending on wall-clock speed.
    """

    def __init__(self, checks):
        self.checks = checks

    def expired(self):
        self.checks -= 1
        return self.checks < 0


class TestDegradedAnswers:
    def test_deadline_skip_equivalence(self):
        world = World()
        truth = eqt_truth(world, [1, 3], [2])
        # Warm the view so the degraded answer is non-trivial.
        world.run(eqt_binder([1, 3], [2]), truth)
        result = world.run(
            eqt_binder([1, 3], [2]), truth, deadline=CountdownDeadline(0)
        )
        # An exhausted budget at the O3 checkpoint: the partial answer,
        # nothing from full execution, explicitly incomplete.
        assert not result.complete
        assert result.degraded_reason == "deadline-skip"
        assert result.remaining_rows == []
        assert values(result.partial_rows), "warm view delivered nothing"

    def test_deadline_abandon_contract(self):
        world = World(r_rows=BIG_R)
        truth = eqt_truth(world, [0, 1, 2], [0, 1])
        world.run(eqt_binder([0, 1, 2], [0, 1]), truth)
        # Budget for the skip checkpoint and one batch checkpoint.
        result = world.run(
            eqt_binder([0, 1, 2], [0, 1]), truth, deadline=CountdownDeadline(2)
        )
        # Every delivered tuple is a true result, delivered once (the
        # sub-multiset check in World.run); the O2 portion arrived and
        # so did the batch scanned before the budget ran out.
        assert not result.complete
        assert result.degraded_reason == "deadline-abandon"
        assert values(result.partial_rows)
        assert 0 < len(result.remaining_rows) < len(truth)

    def test_abandoned_chunks_still_counted(self):
        # Degraded answers still record honest metrics.
        world = World()
        truth = eqt_truth(world, [1, 3], [2])
        world.run(eqt_binder([1, 3], [2]), truth)
        before = world.view.metrics.snapshot()
        result = world.run(
            eqt_binder([1, 3], [2]), truth, deadline=CountdownDeadline(1)
        )
        assert result.metrics.deadline_degraded
        assert result.metrics.partial_tuples == len(result.partial_rows) > 0
        assert result.metrics.remaining_tuples == len(result.remaining_rows)
        after = world.view.metrics.snapshot()
        assert after["queries"] == before["queries"] + 1
        assert (
            after["partial_tuples"]
            == before["partial_tuples"] + result.metrics.partial_tuples
        )


class TestIntervalSlots:
    """Sub-interval queries create non-basic parts: the O2 filter runs
    through ``PMVExecutor._part_matcher`` compiled tests."""

    GRIDS = {"s.g": BasicIntervals([2, 4])}

    def world(self, **kwargs):
        return World(template_factory=ivt_template, grids=dict(self.GRIDS), **kwargs)

    @staticmethod
    def binder(fs, intervals):
        return lambda t: t.bind(
            [
                EqualityDisjunction("r.f", list(fs)),
                IntervalDisjunction("s.g", list(intervals)),
            ]
        )

    CASES = [
        # (fs, intervals, g-membership test)
        ([1, 3], [Interval(0, 3)], lambda g: 0 < g < 3),
        ([1, 3], [Interval(1, 3, low_inclusive=True, high_inclusive=True)],
         lambda g: 1 <= g <= 3),
        ([0, 2], [Interval(2, 4, low_inclusive=True)], lambda g: 2 <= g < 4),
        ([0, 1, 2],
         [Interval(0, 1, high_inclusive=True), Interval(2, 3, high_inclusive=True)],
         lambda g: 0 < g <= 1 or 2 < g <= 3),
    ]

    def test_sub_interval_queries_match_row_pipeline(self):
        world = self.world()
        for fs, intervals, g_test in self.CASES:
            # Twice: the second run probes *resident* entries, so the
            # non-basic groups filter live PMV values via the matcher.
            for _ in range(2):
                world.run(
                    self.binder(fs, intervals), oracle(world.db, set(fs), g_test)
                )
        # White-box: the non-basic groups actually reached the compiled
        # matcher memo (sub-intervals are never basic).
        assert world.executor._part_matchers

    def test_exactly_basic_interval_takes_fast_path(self):
        # [2, 4) IS a basic interval: has_basic groups skip the matcher.
        world = self.world()
        binder = self.binder([1], [Interval(2, 4, low_inclusive=True)])
        for _ in range(2):
            result = world.run(binder, oracle(world.db, {1}, lambda g: 2 <= g < 4))
        assert result.partial_rows
        assert not world.executor._part_matchers

    def test_interval_distinct_equivalence(self):
        world = self.world(s_rows=DUP_S)
        binder = self.binder([0, 1], [Interval(0, 3)])
        truth = oracle(world.db, {0, 1}, lambda g: 0 < g < 3)
        for _ in range(2):
            result = world.run(binder, truth, distinct=True)
            got = values(result.all_rows())
            assert len(got) == len(set(got))


class TestBypassedExecution:
    """A query that cannot use the PMV — S lock denied, or the view
    beyond its freshness bound — is answered by plain blocking
    execution over the same plan stream as O3."""

    FS, GS = [1, 3], [2]

    def bypassed_world(self, how, r_rows=DEFAULT_R):
        """A warm duplicate-row world whose next query must bypass;
        returns the world and the metrics flag that must be raised."""
        if how == "lock":
            world = World(r_rows=r_rows, s_rows=DUP_S, lock_timeout=0.01)
        else:
            world = World(r_rows=r_rows, s_rows=DUP_S, freshness_bound=0)
        world.run(
            eqt_binder(self.FS, self.GS), eqt_truth(world, self.FS, self.GS)
        )
        assert world.view.stored_tuple_count > 0
        if how == "lock":
            # Maintenance in flight: another transaction holds X.
            writer = world.db.begin()
            writer.lock_exclusive(world.view.name, wait=False)
            return world, "bypassed_lock"
        world.db.wal = WriteAheadLog()  # the drain reads the log
        world.manager.enable_async_maintenance()
        world.db.insert("s", (11, 9, "lag"))  # undrained: the view trails by 1
        return world, "bypassed_stale"

    def run(self, world, **kwargs):
        return world.run(
            eqt_binder(self.FS, self.GS),
            eqt_truth(world, self.FS, self.GS),
            **kwargs,
        )

    @pytest.mark.parametrize("how", ["lock", "stale"])
    @pytest.mark.parametrize("distinct", [False, True])
    def test_bypass_returns_database_run(self, how, distinct):
        world, flag = self.bypassed_world(how)
        stored = world.view.stored_tuple_count
        result = self.run(world, distinct=distinct)
        assert getattr(result.metrics, flag)
        assert result.complete and result.partial_rows == []
        assert result.remaining_rows  # World.run compared it to Database.run
        assert world.view.stored_tuple_count == stored  # no refresh

    @pytest.mark.parametrize("how", ["lock", "stale"])
    def test_on_o3_fires_inside_the_statement_latch(self, how):
        world, flag = self.bypassed_world(how)
        latch_free = []

        def on_o3(query):
            def probe():
                got = world.db.statement_latch.acquire(blocking=False)
                latch_free.append(got)
                if got:
                    world.db.statement_latch.release()

            other = threading.Thread(target=probe)
            other.start()
            other.join(timeout=5.0)
            assert not other.is_alive()

        result = self.run(world, on_o3=on_o3)
        assert getattr(result.metrics, flag)
        assert latch_free == [False]

    @pytest.mark.parametrize("how", ["lock", "stale"])
    def test_deadline_skip_is_empty_and_incomplete(self, how):
        world, flag = self.bypassed_world(how)
        result = self.run(world, deadline=CountdownDeadline(0))
        assert getattr(result.metrics, flag)
        assert not result.complete
        assert result.degraded_reason == "deadline-skip"
        assert result.all_rows() == []

    @pytest.mark.parametrize("how", ["lock", "stale"])
    def test_deadline_abandon_is_a_true_sub_multiset(self, how):
        world, flag = self.bypassed_world(how, r_rows=BIG_R)
        # Budget for the skip checkpoint and one batch checkpoint; the
        # sub-multiset check itself is World.run's.
        result = self.run(world, deadline=CountdownDeadline(2))
        assert getattr(result.metrics, flag)
        assert not result.complete
        assert result.degraded_reason == "deadline-abandon"
        assert result.partial_rows == []
        truth = eqt_truth(world, self.FS, self.GS)
        assert 0 < len(result.remaining_rows) < len(truth)

    def test_execute_without_pmv_returns_database_run(self):
        world = World(s_rows=DUP_S)
        query = eqt_binder(self.FS, self.GS)(world.template)
        rows, seconds = world.executor.execute_without_pmv(query)
        assert sorted(values(rows)) == sorted(values(world.db.run(query)))
        assert sorted(values(rows)) == eqt_truth(world, self.FS, self.GS)
        assert seconds >= 0.0


class TestPreview:
    """``preview()`` is O1+O2 alone: exactly the partial rows a
    following ``execute()`` delivers."""

    def check(self, world, binder):
        world.executor.execute(binder(world.template))  # warm
        preview = world.executor.preview(binder(world.template))
        executed = world.executor.execute(binder(world.template))
        assert preview.remaining_rows == []
        assert values(preview.partial_rows) == values(executed.partial_rows)
        assert preview.partial_rows, "warm view delivered nothing"
        assert preview.metrics.partial_tuples == len(preview.partial_rows)

    def test_equality_query(self):
        self.check(World(), eqt_binder([1, 3], [2]))

    def test_sub_interval_query(self):
        world = TestIntervalSlots().world()
        self.check(world, TestIntervalSlots.binder([1, 3], [Interval(0, 3)]))
        assert world.executor._part_matchers

    def test_exactly_basic_interval_query(self):
        world = TestIntervalSlots().world()
        self.check(
            world,
            TestIntervalSlots.binder([1], [Interval(2, 4, low_inclusive=True)]),
        )
        assert not world.executor._part_matchers
