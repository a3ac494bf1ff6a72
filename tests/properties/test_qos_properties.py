"""Property-based QoS: degraded answers are always explicit subsets.

Hypothesis draws an interleaving seed and a stream of per-query
deadline budgets (from instantly-spent to effectively-unbounded) and
runs concurrent PMV clients against concurrent writers under the
deterministic :class:`~repro.faults.InterleavingScheduler`.  Every
answer is stamped with the WAL position at its latched ``on_o3`` point,
the WAL is replayed single-threaded (:mod:`repro.check`), and for every
answer:

- ``complete=True``  -> the rows must equal the reference answer
  **row for row** (multiset equality) — a deadline must never make an
  answer silently incomplete;
- ``complete=False`` -> the rows must be a **multiset subset** of the
  reference answer — a degraded answer may miss rows, never invent,
  duplicate, or serve stale ones.

This is the paper's partial-answer promise carried into overload mode:
whatever the deadline does, every delivered tuple is a true result.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.check import (
    GEOMETRY,
    Answer,
    Replay,
    build_world,
    check_answers,
    multiset,
    random_binding,
    record_answer,
)
from repro.errors import LockError
from repro.faults import InterleavingScheduler
from repro.qos import Deadline

_JOIN_TIMEOUT = 60.0

# From always-expired through plausibly-mid-scan to never-expiring.
_BUDGETS = (0.0, 0.0002, 0.001, 0.005, 60.0)


def _run_session(seed: int, budgets: list[float], clients: int = 2, writers: int = 1):
    """One scheduled concurrent session; returns (database, answers,
    errors), every answer stamped with its serialization LSN."""
    database, manager, template = build_world(seed)
    sched = InterleavingScheduler(seed)
    database.install_scheduler(sched)

    answers: list[Answer] = []
    errors: list[str] = []

    def client_body(index: int) -> None:
        rng = random.Random(seed * 7919 + 101 * index)
        try:
            for k, budget in enumerate(budgets):
                _result, answer = record_answer(
                    f"c{index}.{k}",
                    random_binding(template, rng),
                    database,
                    manager.execute,
                    deadline=Deadline.after(budget),
                )
                answers.append(answer)
        except BaseException as exc:
            errors.append(f"c{index}: {type(exc).__name__}: {exc}")

    def writer_body(index: int) -> None:
        rng = random.Random(seed * 104_729 + 307 * index)
        next_id = 200_000 * (index + 1)
        owned = {}
        try:
            for _ in range(6):
                try:
                    if rng.random() < 0.6 or not owned:
                        owned[next_id] = database.insert(
                            "r",
                            (next_id, rng.randrange(6), rng.randrange(4),
                             f"pw{index}a{next_id}", "fresh"),
                        )
                        next_id += 1
                    else:
                        victim = rng.choice(sorted(owned))
                        database.delete("r", owned.pop(victim))
                except LockError:
                    # The maintainer's clean abort under reader bursts.
                    continue
        except BaseException as exc:
            errors.append(f"w{index}: {type(exc).__name__}: {exc}")

    threads = [sched.spawn(f"c{i}", client_body, i) for i in range(clients)] + [
        sched.spawn(f"w{i}", writer_body, i) for i in range(writers)
    ]
    for thread in threads:
        thread.start()
    sched.launch()
    for thread in threads:
        thread.join(_JOIN_TIMEOUT)
    hung = [t.name for t in threads if t.is_alive()]
    database.install_scheduler(None)
    if hung:
        errors.append(f"hang: {','.join(hung)}")
    return database, answers, errors


@given(
    seed=st.integers(0, 7),
    budgets=st.lists(st.sampled_from(_BUDGETS), min_size=2, max_size=4),
)
@settings(max_examples=12, deadline=None)
def test_degraded_answers_are_subsets_under_concurrent_writers(seed, budgets):
    """The tentpole property: whatever the deadline and the
    interleaving do, a degraded answer is a true subset of the full
    answer at its serialization point, and a complete answer is exact."""
    database, answers, errors = _run_session(seed, budgets)
    assert not errors, errors
    assert len(answers) == 2 * len(budgets)
    violations = check_answers(answers, Replay(database.wal.records(), **GEOMETRY))
    assert not violations, [str(violation) for violation in violations]


@given(seed=st.integers(0, 31))
@settings(max_examples=16, deadline=None)
def test_zero_budget_answer_is_explicitly_partial(seed):
    """A spent budget must always yield complete=False and only cached
    (true) tuples — never a silently truncated 'complete' answer."""
    database, manager, template = build_world(seed)
    rng = random.Random(seed)
    query = random_binding(template, rng)
    # Warm the PMV so the degraded answer has cached rows to serve.
    manager.execute(query)
    answer = manager.execute(query, deadline=Deadline.after(0.0))
    assert answer.complete is False
    assert answer.degraded_reason in ("deadline-skip", "deadline-abandon")
    assert not multiset(answer.all_rows()) - multiset(database.run(query))
    view = manager.view(template.name)
    assert view.metrics.snapshot()["qos_partial_answers"] >= 1


@given(seed=st.integers(0, 15))
@settings(max_examples=10, deadline=None)
def test_unbounded_budget_answers_stay_exact(seed):
    """A generous deadline changes nothing: the PMV-mediated answer
    still equals plain blocking execution row for row."""
    database, manager, template = build_world(seed)
    rng = random.Random(seed ^ 0xBEEF)
    for _ in range(3):
        query = random_binding(template, rng)
        answer = manager.execute(query, deadline=Deadline.after(60.0))
        assert answer.complete is True
        assert answer.degraded_reason is None
        assert multiset(answer.all_rows()) == multiset(database.run(query))
