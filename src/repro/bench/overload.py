"""Overload-protection drill: what the serving gate promises under a spike.

Offers more load than the admission limit (8 clients × 12 PMV-mediated
join queries, 2 concurrent writers triggering PMV maintenance) to a
:class:`repro.qos.ServingGate` with admission control (2 queries inside
the engine at once), per-query deadlines, and the degradation governor:
excess load is shed with typed errors at the door, and queries whose
budget runs out return the PMV partial answer explicitly marked
``complete=False``.  How *fast* the admitted queries are is the perf
harness's question (``python -m bench.perf``), not this drill's.

The spike is **replay-verified**: the database logs to an
in-memory WAL and every answer is stamped with the WAL position at its
serialization point (the executor's ``on_o3``, which fires inside a
latched section for degraded answers too); the log is then replayed
single-threaded into a scratch database (:mod:`repro.check.oracle`) and

- every ``complete=True`` answer must match the reference answer
  **row for row** (multiset equality), and
- every ``complete=False`` answer must be a **multiset subset** of the
  reference answer — a degraded answer may miss rows, never invent or
  duplicate them;
- an answer that differs from the reference while claiming
  ``complete=True`` is a **silently incomplete** answer, and the run
  fails if there is even one.

After the spike, a light cool-down drains the governor's latency
window and the run asserts the state machine stepped back to NORMAL —
degradation is a mode, not a ratchet.
"""

from __future__ import annotations

import random
import time

from repro.check import (
    GEOMETRY,
    Drill,
    Outcome,
    Replay,
    Workers,
    build_world,
    check_answers,
    handle,
    random_binding,
    record_answer,
)
from repro.errors import OverloadError
from repro.qos import (
    AdmissionController,
    Deadline,
    GovernorConfig,
    QoSState,
    ServingGate,
)

__all__ = ["DRILL", "run"]

CLIENTS = 8
QUERIES_PER_CLIENT = 12
WRITERS = 2
OPS_PER_WRITER = 12
MAX_CONCURRENCY = 2
MAX_QUEUE_DEPTH = 4
QUEUE_TIMEOUT = 0.2
DEADLINE = 0.02
"""Per-query budget (seconds)."""
COOLDOWN_QUERIES = 48
"""Light queries after the spike, draining the latency window."""


def _answer(workers: Workers, gate: ServingGate, label: str, query, deadline):
    """One gated query, recorded with its serialization stamp."""
    result, answer = record_answer(
        label, query, gate.manager.database, gate.execute, deadline=deadline
    )
    workers.answers.append(answer)
    return result


def _protected_client(workers: Workers, gate: ServingGate, template, seed, index) -> None:
    rng = random.Random(seed * 30_013 + 211 * index)
    for k in range(QUERIES_PER_CLIENT):
        query = random_binding(template, rng)
        try:
            _answer(workers, gate, f"p{index}.{k}", query, DEADLINE)
        except OverloadError:
            pass  # shed at the door: nothing ran, nothing was recorded


def _cooldown(gate: ServingGate, template, seed: int) -> None:
    """Drain the spike out of the governor's latency window with light
    single-threaded traffic, ticking the state machine as we go."""
    rng = random.Random(seed * 40_009)
    for _ in range(COOLDOWN_QUERIES):
        try:
            gate.execute(random_binding(template, rng), deadline=1.0)
        except OverloadError:
            pass
        gate.governor.tick()
    for _ in range(1000):
        if gate.governor.state == QoSState.NORMAL:
            break
        try:
            gate.execute(random_binding(template, rng), deadline=1.0)
        except OverloadError:
            pass
        gate.governor.tick()
        time.sleep(0.01)


def run(seed: int, schedule: str = "none") -> Outcome:
    """Spike, recovery, replay verification."""
    database, manager, template = build_world(seed)
    gate = ServingGate(
        manager,
        admission=AdmissionController(
            max_concurrency=MAX_CONCURRENCY,
            max_queue_depth=MAX_QUEUE_DEPTH,
            queue_timeout=QUEUE_TIMEOUT,
        ),
        governor_config=GovernorConfig(
            degrade_p99=max(0.002, DEADLINE / 4),
            shed_p99=1.0,
            degrade_queue=2,
            shed_queue=max(3, MAX_QUEUE_DEPTH),
            recover_ticks=2,
            latency_window=32,
            tick_interval=0.01,
        ),
    )
    workers = Workers()
    workers.run(
        [(f"p{i}", _protected_client, (workers, gate, template, seed, i))
         for i in range(CLIENTS)]
        + [(f"w{i}", workers.writer, (database, seed, i, OPS_PER_WRITER, 0.6, 1.0))
           for i in range(WRITERS)]
    )
    outcome = Outcome(handle("overload", seed, schedule), workers.errors)

    # Deterministic degraded answers: a zero-budget query in the calm
    # after the spike is always admitted (slots free) and must return
    # the PMV-only answer marked incomplete.
    rng = random.Random(seed * 50_021)
    for k in range(3):
        query = random_binding(template, rng)
        if _answer(workers, gate, f"z.{k}", query, Deadline.after(0.0)).complete:
            outcome.violations.append(f"zero-budget query z.{k} claimed complete=True")

    _cooldown(gate, template, seed)

    replay = Replay(database.wal.records(), **GEOMETRY)
    violations = check_answers(workers.answers, replay)
    outcome.violations.extend(map(str, violations))
    replay.advance()
    stats = gate.stats()
    if stats["qos_partial_answers"] < 1:
        outcome.violations.append("no deadline-degraded answers were produced")
    if stats["qos_state"] != QoSState.NORMAL:
        outcome.violations.append(
            f"governor did not return to NORMAL after the spike "
            f"(stuck in {stats['qos_state']})"
        )
    outcome.counts = {
        "admitted": stats["qos_admitted"],
        "shed": stats["qos_shed"],
        "complete_answers": stats["qos_complete_answers"],
        "partial_answers": stats["qos_partial_answers"],
        "deadline_abandons": stats["qos_deadline_abandons"],
        "silently_incomplete": sum(v.answer.complete for v in violations),
        "subset_violations": sum(not v.answer.complete for v in violations),
        "queries_checked": len(workers.answers),
        "records_replayed": replay.records,
        "state_transitions": stats["qos_state_transitions"],
        "breaker_opens": stats["breaker_opens"],
        "swallowed_errors": stats["swallowed_errors"] + stats["database_swallowed_errors"],
        "writer_lock_aborts": len(workers.lock_aborts),
    }
    return outcome


DRILL = Drill("overload", points=lambda seed: ["none"], run=run)
