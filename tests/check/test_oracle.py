"""The oracle's own table: one small recorded history, and every way of
tampering with it that ``check_answers`` / ``WriteLedger`` must name.

The drills trust :mod:`repro.check.oracle` to fail them; this file is
where that trust is earned.  The last two classes run the drills with
one recorded answer tampered just before the check, assert the drill
itself reports failure, and that the handle it prints replays the same
violations.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from dataclasses import replace

import pytest

from repro import check
from repro.check import (
    Answer,
    Replay,
    WriteLedger,
    check_answers,
    multiset,
    runner,
    verify_crash_recovery,
)
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
        outcome = stress.run(3, "free")
        assert tampered and not outcome.ok
        assert [v.split()[:3] for v in outcome.violations] == [
            ["missing:", "answer", label] for label in tampered
        ]

    def test_overload(self, monkeypatch):
        from repro.bench import overload

        tampered = _tampering(monkeypatch, overload)
        outcome = overload.run(0)
        assert tampered and not outcome.ok
        assert outcome.counts["silently_incomplete"] == 1
        assert outcome.counts["subset_violations"] == 0

    def test_failover(self, monkeypatch):
        from repro.bench import failover

        tampered = _tampering(monkeypatch, failover)
        outcome = failover.run_drill(3, None)
        assert tampered and not outcome.ok
        (violation,) = outcome.violations
        assert "missing" in violation and tampered[0] in violation

    def test_nemesis(self, monkeypatch):
        from repro.bench import nemesis

        tampered = _tampering(monkeypatch, nemesis)
        outcome = nemesis.run(5, nemesis.DRILL.points(5)[0])
        assert tampered and not outcome.ok
        assert any("untrue-read: missing" in v for v in outcome.violations)


def _tampering_recovery(monkeypatch, module):
    """Make ``module``'s crash-recovery check expect one ``r`` row more
    than was acknowledged (the torture drill has no answer to tamper)."""
    tampered = []

    def check_with_a_ghost_row(recovered, acked, acked_plus_inflight=None):
        for expected in filter(None, (acked, acked_plus_inflight)):
            expected["r"] = sorted(expected["r"] + [(-1, 0, 0, "ghost")], key=repr)
        tampered.append(True)
        return verify_crash_recovery(recovered, acked, acked_plus_inflight)

    monkeypatch.setattr(module, "verify_crash_recovery", check_with_a_ghost_row)
    return tampered


class TestPrintedHandlesReplay:
    """A tampered deterministic drill exits 1 and prints a handle; the
    replay of that handle finds the identical violations."""

    @pytest.mark.parametrize(
        "drill, args, tamper",
        [
            ("torture", ["--seeds", "0", "--max-points", "2"], _tampering_recovery),
            ("failover", ["--seeds", "1", "--max-points", "1"], _tampering),
            ("nemesis", ["--seeds", "5"], _tampering),
            ("stress", ["--seeds", "1"], _tampering),
        ],
    )
    def test_replay_reproduces_the_violations(
        self, drill, args, tamper, monkeypatch, tmp_path, capsys
    ):
        module = importlib.import_module(f"repro.bench.{drill}")
        tampered = tamper(monkeypatch, module)
        swept, replayed = tmp_path / "sweep.json", tmp_path / "replay.json"
        assert runner.main([drill, *args, "--report", str(swept)]) == 1
        assert tampered
        handles = [
            line.split()[-1]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("replay: python -m repro.check --replay ")
        ]
        assert handles and all(h.startswith(f"{drill}/") for h in handles)
        assert runner.main(["--replay", handles[0], "--report", str(replayed)]) == 1

        def violations(path):
            return {
                outcome["handle"]: outcome["violations"]
                for entry in json.loads(path.read_text())["drills"]
                for outcome in entry["outcomes"]
            }

        replay = violations(replayed)
        assert list(replay) == [handles[0]] and replay[handles[0]]
        assert replay[handles[0]] == violations(swept)[handles[0]]
