"""The oracle's own table: one small recorded history, and every way of
tampering with it that ``check_answers`` / ``WriteLedger`` must name.

The drills trust :mod:`repro.check.oracle` to fail them; this file is
where that trust is earned.  The last class runs each converted drill
with one recorded answer tampered just before the check and asserts
the drill itself reports failure.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from repro import check
from repro.check import Answer, Replay, WriteLedger, check_answers, multiset
from repro.engine import Database, WriteAheadLog
from repro.qos import Deadline


@pytest.fixture(scope="module")
def history():
    """(WAL records, answers by label) of one clean single-threaded run:
    complete answers around an insert and a delete, a zero-budget
    partial answer, and one answer of an asynchronously maintained view
    delivered over an LSN window with an undrained insert and delete."""
    database = check.build_rs(Database(wal=WriteAheadLog()), 48, 24)
    template = check.rs_template("tq")
    manager = check.attach_view(database, template)
    query = check.bind(template, 0, 0)
    answers: dict[str, Answer] = {}

    def record(label, result, low=None):
        answers[label] = Answer(
            label,
            query,
            multiset(result.all_rows()),
            result.complete,
            database.current_lsn(),
            low,
        )
        return result

    def r_row_id(a):
        return next(
            row_id
            for row_id, row in database.catalog.relation("r").scan()
            if row["a"] == a
        )

    record("seed", manager.execute(query))
    record("partial", manager.execute(query, deadline=Deadline.after(0.0)))
    database.insert("r", (900, 0, 0, "new"))
    record("after-insert", manager.execute(query))
    database.delete("r", r_row_id("a0"))
    record("after-delete", manager.execute(query))

    manager.enable_async_maintenance()
    stale = manager.execute(query, deadline=Deadline.after(0.0)).partial_rows[0]
    database.insert("r", (901, 0, 0, "late"))
    database.delete("r", r_row_id(stale["r.a"]))
    result = manager.execute(query)
    assert result.applied_lsn < database.current_lsn()
    record("window", result, low=result.applied_lsn)
    return list(database.wal.records()), answers


def _judge(history, tamper=None):
    records, answers = history
    answers = {
        label: replace(answer, rows=Counter(answer.rows))
        for label, answer in answers.items()
    }
    if tamper is not None:
        tamper(answers)
    return check_answers(answers.values(), Replay(records))


def _row_with(answer: Answer, value: str) -> tuple:
    return next(row for row in answer.rows if value in row)


def _drop(answer: Answer, row: tuple) -> None:
    answer.rows = answer.rows - Counter([row])


def _phantom_in_partial(a):
    a["partial"].rows[("ghost", "e0", 0, 0)] += 1


def _duplicate_in_partial(a):
    a["partial"].rows[next(iter(a["partial"].rows))] += 1


def _missing_from_complete(a):
    _drop(a["seed"], _row_with(a["seed"], "a0"))


def _stale_stamp(a):
    # The inserted row, claimed one LSN before it existed.
    a["after-insert"].high -= 1


def _late_stamp(a):
    # The pre-delete answer, stamped after the delete.
    a["after-insert"].high = a["after-delete"].high


def _partial_claims_complete(a):
    a["partial"].complete = True


def _window_lacks_current(a):
    _drop(a["window"], _row_with(a["window"], "late"))


def _window_holds_older(a):
    # "a0" was deleted before the window opened.
    a["window"].rows[_row_with(a["seed"], "a0")] += 1


def _stamp_past_the_log(a):
    a["after-delete"].high += 100


TAMPERS = [
    (_phantom_in_partial, "partial", "phantom"),
    (_duplicate_in_partial, "partial", "phantom"),
    (_missing_from_complete, "seed", "missing"),
    (_stale_stamp, "after-insert", "phantom"),
    (_late_stamp, "after-insert", "phantom"),
    (_partial_claims_complete, "partial", "missing"),
    (_window_lacks_current, "window", "missing"),
    (_window_holds_older, "window", "phantom"),
    (_stamp_past_the_log, "after-delete", "unreplayable"),
]


class TestAnswerRule:
    def test_clean_history_passes(self, history):
        assert _judge(history) == []

    def test_history_is_not_vacuous(self, history):
        _, answers = history
        assert not answers["partial"].complete
        assert 0 < sum(answers["partial"].rows.values()) < sum(answers["seed"].rows.values())
        window = answers["window"]
        assert window.low < window.high
        # The window answer really holds a tuple that is gone at `high`.
        assert _judge(history, lambda a: setattr(a["window"], "low", None))

    @pytest.mark.parametrize(
        "tamper, label, kind", TAMPERS, ids=[t[0].__name__.strip("_") for t in TAMPERS]
    )
    def test_tampered_history_is_named(self, history, tamper, label, kind):
        violations = _judge(history, tamper)
        assert [(v.answer.label, v.kind) for v in violations] == [(label, kind)]
        assert label in str(violations[0])

    def test_wire_answers_are_judged_over_the_select_list(self, history):
        def narrow(answers):
            for answer in answers.values():
                answer.rows = Counter(
                    {row[:2]: count for row, count in answer.rows.items()}
                )

        assert _judge(history, narrow) == []

        def narrow_and_drop(answers):
            narrow(answers)
            _drop(answers["seed"], _row_with(answers["seed"], "a0"))

        (violation,) = _judge(history, narrow_and_drop)
        assert (violation.answer.label, violation.kind) == ("seed", "missing")


class TestLedgerRule:
    LEDGER = WriteLedger(
        acked_inserts={1, 2, 3, 4}, acked_deletes={2}, indoubt_deletes={3}
    )

    def test_clean(self):
        found = Counter({1: 1, 4: 1, 9: 1})  # 9: applied, never acked — legal
        assert self.LEDGER.check(found) == {"duplicate": [], "resurrected": [], "lost": []}

    def test_duplicate(self):
        assert self.LEDGER.check(Counter({1: 2, 4: 1}))["duplicate"] == [1]

    def test_resurrected(self):
        assert self.LEDGER.check(Counter({1: 1, 2: 1, 4: 1}))["resurrected"] == [2]

    def test_lost(self):
        assert self.LEDGER.check(Counter({1: 1}))["lost"] == [4]

    @pytest.mark.parametrize("copies", [0, 1])
    def test_indoubt_delete_excuses_either_outcome(self, copies):
        verdict = self.LEDGER.check(Counter({1: 1, 3: copies, 4: 1}))
        assert verdict == {"duplicate": [], "resurrected": [], "lost": []}


def _tampering(monkeypatch, module):
    """Make ``module``'s oracle call drop one row from the first
    non-empty answer that claims ``complete``."""
    tampered = []

    def check_with_one_row_dropped(answers, replay):
        answers = list(answers)
        victim = next(a for a in answers if a.complete and a.rows)
        _drop(victim, next(iter(victim.rows)))
        tampered.append(victim.label)
        return check_answers(answers, replay)

    monkeypatch.setattr(module, "check_answers", check_with_one_row_dropped)
    return tampered


class TestDrillsFailWhenAnAnswerIsTampered:
    def test_stress(self, monkeypatch):
        from repro.bench import stress

        tampered = _tampering(monkeypatch, stress)
        result = stress.run_stress(
            stress.StressConfig(
                seed=3, clients=2, writers=1, queries_per_client=3, ops_per_writer=3
            )
        )
        assert tampered and not result.ok
        assert [m["query"] for m in result.mismatches] == tampered

    def test_overload(self, monkeypatch):
        from repro.bench import overload

        tampered = _tampering(monkeypatch, overload)
        result = overload.run_overload(
            overload.OverloadConfig(
                clients=3, queries_per_client=4, ops_per_writer=3, cooldown_queries=8
            ),
            verbose=False,
        )
        assert tampered and not result.ok
        assert result.silently_incomplete == 1 and result.subset_violations == 0

    def test_failover(self, monkeypatch):
        from repro.bench import failover

        tampered = _tampering(monkeypatch, failover)
        result = failover.run_drill(3, None, failover.FailoverConfig(seed=3, ops=80))
        assert tampered and not result.ok
        assert "missing" in result.error and tampered[0] in result.error

    def test_nemesis(self, monkeypatch):
        from repro.bench import nemesis

        tampered = _tampering(monkeypatch, nemesis)
        report = nemesis.run_nemesis(
            nemesis.NemesisConfig(seed=5, steps=30, clients=1)
        )
        assert tampered and not report.ok
        assert any("untrue-read: missing" in v for v in report.violations)
