"""Unit/integration tests for the O1/O2/O3 PMV executor."""

from collections import Counter

import pytest

from repro.core import (
    Discretization,
    MaterializedView,
    PartialMaterializedView,
    PMVExecutor,
)
from repro.engine import Database
from repro.errors import LockError, PMVError
from tests.conftest import brute_force_eqt, cached_count, eqt_query


def run(executor, eqt, fs, gs, **kwargs):
    return executor.execute(eqt_query(eqt, fs, gs), **kwargs)


class TestCorrectness:
    def test_cold_query_returns_full_answer(self, eqt_db, eqt, eqt_executor):
        result = run(eqt_executor, eqt, [1, 3], [2, 4])
        assert result.partial_rows == []
        got = sorted(tuple(r.values) for r in result.all_rows())
        assert got == brute_force_eqt(eqt_db, {1, 3}, {2, 4})

    def test_warm_query_returns_same_answer_with_partials(
        self, eqt_db, eqt, eqt_executor
    ):
        run(eqt_executor, eqt, [1, 3], [2, 4])
        result = run(eqt_executor, eqt, [1, 3], [2, 4])
        assert result.had_partial_results
        got = sorted(tuple(r.values) for r in result.all_rows())
        assert got == brute_force_eqt(eqt_db, {1, 3}, {2, 4})

    def test_each_tuple_delivered_exactly_once(self, eqt_db, eqt, eqt_executor):
        run(eqt_executor, eqt, [1], [2])
        result = run(eqt_executor, eqt, [1], [2])
        # partial + remaining together must be the multiset answer.
        expected = brute_force_eqt(eqt_db, {1}, {2})
        got = sorted(tuple(r.values) for r in result.all_rows())
        assert got == expected
        # no tuple may appear in both streams beyond its multiplicity
        partial = [tuple(r.values) for r in result.partial_rows]
        for t in partial:
            assert got.count(t) >= partial.count(t)

    def test_matches_mv_oracle_across_many_queries(self, eqt_db, eqt, eqt_executor):
        oracle = MaterializedView(eqt_db, eqt)
        for fs, gs in [([0], [0]), ([1, 2], [1]), ([3, 4, 5], [2, 3]), ([1], [0, 4])]:
            query = eqt_query(eqt, fs, gs)
            result = eqt_executor.execute(query)
            assert sorted(tuple(r.values) for r in result.all_rows()) == sorted(
                tuple(r.values) for r in oracle.answer(query)
            )

    def test_user_rows_project_to_ls(self, eqt_db, eqt, eqt_executor):
        result = run(eqt_executor, eqt, [1], [2])
        for row in result.user_rows():
            assert len(row) == 2  # Ls = (r.a, s.e)

    def test_wrong_template_rejected(self, eqt_db, eqt, eqt_pmv):
        other_db = Database()
        executor = PMVExecutor(eqt_db, eqt_pmv)
        from repro.engine import (
            Column,
            INTEGER,
            QueryTemplate,
            SelectionSlot,
            SlotForm,
            EqualityDisjunction,
        )

        other_db.create_relation("t", [Column("x", INTEGER)])
        other = QueryTemplate(
            "other", ("t",), ("t.x",), (), (SelectionSlot("t", "t.x", SlotForm.EQUALITY),)
        )
        query = other.bind([EqualityDisjunction("t.x", [1])])
        with pytest.raises(PMVError):
            executor.execute(query)


class TestPMVFilling:
    def test_f_tuples_cached_per_bcp(self, eqt_db, eqt, eqt_pmv, eqt_executor):
        run(eqt_executor, eqt, [1], [2])
        # (1, 2) has many matches but only F=2 may be cached.
        assert cached_count(eqt_pmv, (1, 2)) == 2
        eqt_pmv.check_invariants()

    def test_partial_results_come_from_cache(self, eqt_db, eqt, eqt_pmv, eqt_executor):
        run(eqt_executor, eqt, [1], [2])
        cached = {tuple(r.values) for r in eqt_pmv.lookup((1, 2))}
        result = run(eqt_executor, eqt, [1], [2])
        assert {tuple(r.values) for r in result.partial_rows} == cached

    def test_only_query_bcps_receive_tuples(self, eqt_db, eqt, eqt_pmv, eqt_executor):
        run(eqt_executor, eqt, [1], [2])
        assert cached_count(eqt_pmv, (3, 2)) == 0

    def test_metrics_recorded(self, eqt_db, eqt, eqt_pmv, eqt_executor):
        run(eqt_executor, eqt, [1, 3], [2, 4])
        run(eqt_executor, eqt, [1, 3], [2, 4])
        metrics = eqt_pmv.metrics
        assert metrics.queries == 2
        assert metrics.query_hits == 1
        assert metrics.hit_probability == 0.5
        assert metrics.partial_tuples > 0
        assert metrics.overhead_seconds > 0

    def test_condition_part_count_is_h(self, eqt_db, eqt, eqt_executor):
        result = run(eqt_executor, eqt, [1, 3], [2, 4])
        assert result.metrics.condition_parts == 4

    def test_adaptation_under_changing_pattern(self, eqt_db, eqt, eqt_executor, eqt_pmv):
        # Hammer cells (0..3, 0) then switch to (0..3, 1): the PMV
        # (capacity 16) should end up serving the new pattern.
        for _ in range(4):
            for f in range(4):
                run(eqt_executor, eqt, [f], [0])
        for _ in range(6):
            for f in range(4):
                run(eqt_executor, eqt, [f], [1])
        final = run(eqt_executor, eqt, [0, 1, 2, 3], [1])
        assert final.metrics.bcp_hits == 4


class TestDistinct:
    def test_distinct_suppresses_duplicates(self, eqt_db, eqt, eqt_executor):
        # Insert a duplicate r row so the join yields duplicate results.
        eqt_db.insert("r", (1000, 1, 1, "a1"))  # same (c=1, f=1, a="a1") as id=1? craft below
        query = eqt_query(eqt, [1], [2])
        plain = eqt_executor.execute(query)
        values = [tuple(r.values) for r in plain.all_rows()]
        assert len(values) >= len(set(values))
        distinct = eqt_executor.execute(query, distinct=True)
        dvalues = [tuple(r.values) for r in distinct.all_rows()]
        assert sorted(set(values)) == sorted(dvalues)
        assert len(dvalues) == len(set(dvalues))

    def test_distinct_warm_path(self, eqt_db, eqt, eqt_executor):
        query = eqt_query(eqt, [2], [3])
        eqt_executor.execute(query, distinct=True)
        warm = eqt_executor.execute(query, distinct=True)
        values = [tuple(r.values) for r in warm.all_rows()]
        assert len(values) == len(set(values))
        plain = eqt_executor.execute(query)
        assert set(values) == {tuple(r.values) for r in plain.all_rows()}


class TestLocking:
    def test_s_lock_taken_and_released(self, eqt_db, eqt, eqt_pmv, eqt_executor):
        run(eqt_executor, eqt, [1], [2])
        shared, exclusive = eqt_db.lock_manager.holders(eqt_pmv.name)
        assert shared == set() and exclusive is None

    def test_execute_bypasses_pmv_when_writer_holds_x(
        self, eqt_db, eqt, eqt_pmv, eqt_executor
    ):
        # A held X lock no longer kills the query: it degrades to plain
        # blocking execution with a bypass marker, and the answer is
        # still complete and correct.
        eqt_executor.lock_timeout = 0.01  # keep the test fast
        writer = eqt_db.begin()
        writer.lock_exclusive(eqt_pmv.name, wait=False)
        result = run(eqt_executor, eqt, [1], [2])
        assert result.metrics.bypassed_lock
        assert result.partial_rows == []
        got = sorted(tuple(r.values) for r in result.all_rows())
        assert got == brute_force_eqt(eqt_db, {1}, {2})
        assert eqt_pmv.metrics.pmv_bypassed_lock == 1
        writer.commit()
        fresh = run(eqt_executor, eqt, [1], [2])
        assert not fresh.metrics.bypassed_lock

    def test_preview_degrades_to_empty_when_writer_holds_x(
        self, eqt_db, eqt, eqt_pmv, eqt_executor
    ):
        eqt_executor.lock_timeout = 0.01
        run(eqt_executor, eqt, [1], [2])  # warm the view
        writer = eqt_db.begin()
        writer.lock_exclusive(eqt_pmv.name, wait=False)
        result = eqt_executor.preview(eqt_query(eqt, [1], [2]))
        assert result.metrics.bypassed_lock
        assert result.partial_rows == [] and result.remaining_rows == []
        writer.commit()

    def test_caller_transaction_keeps_lock_until_commit(
        self, eqt_db, eqt, eqt_pmv, eqt_executor
    ):
        txn = eqt_db.begin(read_only=True)
        run(eqt_executor, eqt, [1], [2], txn=txn)
        assert txn.holds_shared(eqt_pmv.name)
        txn.commit()
        shared, _ = eqt_db.lock_manager.holders(eqt_pmv.name)
        assert shared == set()


class TestBaseline:
    def test_execute_without_pmv(self, eqt_db, eqt, eqt_executor):
        rows, seconds = eqt_executor.execute_without_pmv(eqt_query(eqt, [1], [2]))
        assert seconds >= 0
        assert sorted(tuple(r.values) for r in rows) == brute_force_eqt(
            eqt_db, {1}, {2}
        )


class TestIntervalTemplate:
    def test_interval_slot_end_to_end(self, eqt_db):
        from repro.core.discretize import BasicIntervals
        from repro.engine import (
            IntervalDisjunction,
            Interval,
            JoinEquality,
            QueryTemplate,
            SelectionSlot,
            SlotForm,
            EqualityDisjunction,
        )

        # g in [0, 5) has id 0, [5, 10) would be id 1 etc. s.g ranges 0..4.
        template = QueryTemplate(
            "ivq",
            ("r", "s"),
            ("r.a", "s.e"),
            (JoinEquality("r", "c", "s", "d"),),
            (
                SelectionSlot("r", "r.f", SlotForm.EQUALITY),
                SelectionSlot("s", "s.g", SlotForm.INTERVAL),
            ),
        )
        eqt_db.register_template(template)
        disc = Discretization(template, {"s.g": BasicIntervals([2, 4])})
        view = PartialMaterializedView(template, disc, tuples_per_entry=2, max_entries=8)
        executor = PMVExecutor(eqt_db, view)
        query = template.bind(
            [
                EqualityDisjunction("r.f", [1]),
                IntervalDisjunction("s.g", [Interval(0, 3, low_inclusive=True)]),
            ]
        )
        cold = executor.execute(query)
        warm = executor.execute(query)
        expected = sorted(tuple(r.values) for r in cold.all_rows())
        assert sorted(tuple(r.values) for r in warm.all_rows()) == expected
        assert warm.metrics.bcp_hits > 0
        view.check_invariants()


class TestOrderBy:
    def test_partial_first_ordering(self, eqt_db, eqt, eqt_executor):
        query = eqt_query(eqt, [1, 3], [2, 4])
        eqt_executor.execute(query)  # warm
        result = eqt_executor.execute(query)
        assert result.had_partial_results
        rows = result.ordered_rows(["r.a", "s.e"])
        n = len(result.partial_rows)
        head, tail = rows[:n], rows[n:]
        assert head == sorted(head, key=lambda r: (r["r.a"], r["s.e"]))
        assert tail == sorted(tail, key=lambda r: (r["r.a"], r["s.e"]))
        assert sorted(tuple(r.values) for r in rows) == sorted(
            tuple(r.values) for r in result.all_rows()
        )

    def test_global_ordering(self, eqt_db, eqt, eqt_executor):
        query = eqt_query(eqt, [1, 3], [2, 4])
        result = eqt_executor.execute(query)
        rows = result.ordered_rows(["s.e"], partial_first=False)
        keys = [r["s.e"] for r in rows]
        assert keys == sorted(keys)

    def test_descending(self, eqt_db, eqt, eqt_executor):
        query = eqt_query(eqt, [1], [2])
        result = eqt_executor.execute(query)
        rows = result.ordered_rows(["r.a"], descending=True, partial_first=False)
        keys = [r["r.a"] for r in rows]
        assert keys == sorted(keys, reverse=True)


class TestSharedContainingBcp:
    def test_split_interval_references_bcp_once(self, eqt_db):
        """Two condition parts inside one basic interval must reference
        that bcp once per query — a 2Q-staged bcp is only promoted by a
        *second query*, not by the same query's second part."""
        from repro.core.discretize import BasicIntervals
        from repro.engine import (
            EqualityDisjunction,
            Interval,
            IntervalDisjunction,
            JoinEquality,
            QueryTemplate,
            SelectionSlot,
            SlotForm,
        )

        template = QueryTemplate(
            "iv2q",
            ("r", "s"),
            ("r.a", "s.e"),
            (JoinEquality("r", "c", "s", "d"),),
            (
                SelectionSlot("r", "r.f", SlotForm.EQUALITY),
                SelectionSlot("s", "s.g", SlotForm.INTERVAL),
            ),
        )
        eqt_db.register_template(template)
        disc = Discretization(template, {"s.g": BasicIntervals([10])})
        view = PartialMaterializedView(template, disc, 2, 8, policy="2q")
        executor = PMVExecutor(eqt_db, view)
        # (0,2) and (3,4) both live inside basic interval #0 = (-inf,10).
        query = template.bind(
            [
                EqualityDisjunction("r.f", [1]),
                IntervalDisjunction("s.g", [Interval(0, 2), Interval(3, 4)]),
            ]
        )
        first = executor.execute(query)
        assert first.metrics.condition_parts == 2
        # One query = one sighting: the bcp must still be staged, not
        # promoted into Am.
        assert not view.policy.contains((1, 0))
        assert view.policy.staged((1, 0))
        second = executor.execute(query)
        assert view.policy.contains((1, 0))


class TestConcurrentRefill:
    """Another reader's O3 refill may land between this query's O2 and
    O3 (the S lock keeps out maintenance, not readers): the answer must
    settle against what O2 delivered, and the entry must hold each
    refilled tuple once."""

    @pytest.fixture
    def wide(self, eqt_db, eqt):
        view = PartialMaterializedView(
            eqt, Discretization(eqt), tuples_per_entry=30, max_entries=16
        )
        return view, PMVExecutor(eqt_db, view)

    @staticmethod
    def nested(executor, query):
        """Run ``query`` with a second run of it inside O2→O3; returns
        the outer and the inner answer."""
        inner = []
        outer = executor.execute(
            query, on_partial=lambda _rows: inner.append(executor.execute(query))
        )
        return outer, inner[0]

    def test_refill_between_o2_and_o3_keeps_answer_complete(
        self, eqt_db, eqt, wide
    ):
        view, executor = wide
        query = eqt_query(eqt, [1], [2])
        executor.execute(query)  # the entry now holds the whole answer
        assert cached_count(view, (1, 2)) == len(brute_force_eqt(eqt_db, {1}, {2}))
        eqt_db.insert("r", (200, 7, 1, "aNEW"))
        outer, inner = self.nested(executor, query)
        truth = brute_force_eqt(eqt_db, {1}, {2})
        assert any(t[0] == "aNEW" for t in truth)
        for answer in (inner, outer):
            assert answer.complete
            assert sorted(tuple(r.values) for r in answer.all_rows()) == truth

    def test_two_readers_refill_a_thinned_entry_once(self, eqt_db, eqt, wide):
        view, executor = wide
        query = eqt_query(eqt, [1], [2])
        executor.execute(query)
        assert view.remove_tuple(view.lookup((1, 2))[0])  # thin the entry
        outer, inner = self.nested(executor, query)
        truth = brute_force_eqt(eqt_db, {1}, {2})
        for answer in (inner, outer):
            assert sorted(tuple(r.values) for r in answer.all_rows()) == truth
        held = Counter(tuple(r.values) for r in view.lookup((1, 2)))
        assert held == Counter(truth)  # every tuple back, none twice
        view.check_invariants()
