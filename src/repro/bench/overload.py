"""Overload-protection drill: what the serving gate promises under a spike.

Offers more load than the admission limit (PMV-mediated join queries +
concurrent writers triggering PMV maintenance) to a
:class:`repro.qos.ServingGate` with admission control, per-query
deadlines, and the degradation governor: excess load is shed with typed
errors at the door, and queries whose budget runs out return the PMV
partial answer explicitly marked ``complete=False``.  How *fast* the
admitted queries are is the perf harness's question
(``python -m bench.perf``), not this drill's.

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

Run it::

    python -m repro.bench.overload --report OVERLOAD_report.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field

from repro.bench.stress import GEOMETRY, build_world
from repro.check import Answer, Replay, check_answers, random_binding, record_answer
from repro.engine import Database
from repro.errors import LockError, OverloadError
from repro.qos import (
    AdmissionController,
    Deadline,
    GovernorConfig,
    QoSState,
    ServingGate,
)

__all__ = ["OverloadConfig", "OverloadResult", "run_overload", "main"]

JOIN_TIMEOUT = 120.0


@dataclass(frozen=True)
class OverloadConfig:
    """Shape of one overload run."""

    seed: int = 0
    clients: int = 12
    """Client threads in the spike (offered load)."""
    writers: int = 2
    queries_per_client: int = 25
    ops_per_writer: int = 12
    max_concurrency: int = 3
    """Admission: queries allowed inside the engine at once."""
    max_queue_depth: int = 4
    queue_timeout: float = 0.2
    deadline: float = 0.02
    """Per-query budget (seconds)."""
    cooldown_queries: int = 48
    """Light queries after the spike, draining the latency window."""


@dataclass
class OverloadResult:
    """Outcome of one overload run (serialized into the report)."""

    config: OverloadConfig
    ok: bool = True
    failures: list[str] = field(default_factory=list)
    admitted: int = 0
    shed: int = 0
    shed_by_reason: dict = field(default_factory=dict)
    partial_answers: int = 0
    complete_answers: int = 0
    deadline_abandons: int = 0
    silently_incomplete: int = 0
    subset_violations: int = 0
    queries_checked: int = 0
    changes_replayed: int = 0
    """WAL records replayed: DML statements plus the DDL and seed rows."""
    state_transitions: int = 0
    final_state: str = ""
    breaker_opens: int = 0
    swallowed_errors: int = 0
    writer_lock_aborts: int = 0
    thread_errors: list[dict] = field(default_factory=list)
    elapsed_seconds: float = 0.0


# ---------------------------------------------------------------------------
# Shared run state
# ---------------------------------------------------------------------------


class _Shared:
    """State shared by one phase's worker threads.

    Every answer carries its exact serialization position in the WAL
    (:func:`repro.check.record_answer`)."""

    def __init__(self) -> None:
        self.answers: list[Answer] = []
        self.errors: list[dict] = []
        self.writer_lock_aborts = 0

    def answer(self, gate: ServingGate, label: str, query, deadline):
        """One gated query, recorded with its serialization stamp."""
        result, answer = record_answer(
            label, query, gate.manager.database, gate.execute, deadline=deadline
        )
        self.answers.append(answer)
        return result

    def record_error(self, name: str, exc: BaseException) -> None:
        self.errors.append(
            {
                "thread": name,
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            }
        )


def _run_threads(bodies: list[tuple]) -> list[str]:
    """Start, join, and report hung thread names (empty = all joined)."""
    threads = [
        threading.Thread(target=body, args=args, name=name, daemon=True)
        for name, body, args in bodies
    ]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + JOIN_TIMEOUT
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    return [t.name for t in threads if t.is_alive()]


# ---------------------------------------------------------------------------
# The spike: ServingGate + writers + op log
# ---------------------------------------------------------------------------


def _protected_client(shared: _Shared, gate: ServingGate, template, config, index) -> None:
    rng = random.Random(config.seed * 30_013 + 211 * index)
    name = f"p{index}"
    try:
        for k in range(config.queries_per_client):
            query = random_binding(template, rng)
            try:
                shared.answer(gate, f"{name}.{k}", query, config.deadline)
            except OverloadError:
                pass  # shed at the door: nothing ran, nothing was recorded
    except BaseException as exc:
        shared.record_error(name, exc)


def _writer_body(shared: _Shared, database: Database, config, index: int) -> None:
    """Insert/delete churn on a private id range (no cross-writer
    races); a LockError is the maintainer's clean abort, counted."""
    rng = random.Random(config.seed * 20_011 + 307 * index)
    next_id = 100_000 * (index + 1)
    owned: dict[int, object] = {}
    try:
        for _ in range(config.ops_per_writer):
            try:
                if rng.random() < 0.6 or not owned:
                    values = (
                        next_id,
                        rng.randrange(6),
                        rng.randrange(4),
                        f"w{index}a{next_id}",
                        "fresh",
                    )
                    owned[next_id] = database.insert("r", values)
                    next_id += 1
                else:
                    victim = rng.choice(sorted(owned))
                    database.delete("r", owned.pop(victim))
            except LockError:
                shared.writer_lock_aborts += 1
    except BaseException as exc:
        shared.record_error(f"w{index}", exc)


def _replay_and_check(shared: _Shared, database: Database, result: OverloadResult) -> None:
    """Replay the WAL single-threaded; complete answers must match the
    reference exactly, degraded answers must be multiset subsets."""
    replay = Replay(database.wal.records(), **GEOMETRY)
    for violation in check_answers(shared.answers, replay):
        if violation.answer.complete:
            result.silently_incomplete += 1
        else:
            result.subset_violations += 1
        result.failures.append(str(violation))
    result.queries_checked = len(shared.answers)
    replay.advance()
    result.changes_replayed = replay.records


def _cooldown(gate: ServingGate, template, config: OverloadConfig) -> None:
    """Drain the spike out of the governor's latency window with light
    single-threaded traffic, ticking the state machine as we go."""
    rng = random.Random(config.seed * 40_009)
    for _ in range(config.cooldown_queries):
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


# ---------------------------------------------------------------------------
# One full run
# ---------------------------------------------------------------------------


def run_overload(config: OverloadConfig | None = None, verbose: bool = True) -> OverloadResult:
    """Spike, recovery, replay verification."""
    config = config or OverloadConfig()
    started = time.perf_counter()
    result = OverloadResult(config=config)

    # -- Phase 1: the spike -------------------------------------------------
    database, manager, template = build_world(config.seed)
    gate = ServingGate(
        manager,
        admission=AdmissionController(
            max_concurrency=config.max_concurrency,
            max_queue_depth=config.max_queue_depth,
            queue_timeout=config.queue_timeout,
        ),
        governor_config=GovernorConfig(
            degrade_p99=max(0.002, config.deadline / 4),
            shed_p99=1.0,
            degrade_queue=2,
            shed_queue=max(3, config.max_queue_depth),
            recover_ticks=2,
            latency_window=32,
            tick_interval=0.01,
        ),
    )
    shared = _Shared()
    hung = _run_threads(
        [
            (f"p{i}", _protected_client, (shared, gate, template, config, i))
            for i in range(config.clients)
        ]
        + [
            (f"w{i}", _writer_body, (shared, database, config, i))
            for i in range(config.writers)
        ]
    )
    if hung:
        result.failures.append(f"protected hang: {','.join(hung)}")

    # Deterministic degraded answers: a zero-budget query in the calm
    # after the spike is always admitted (slots free) and must return
    # the PMV-only answer marked incomplete.
    rng = random.Random(config.seed * 50_021)
    for k in range(3):
        query = random_binding(template, rng)
        answer = shared.answer(gate, f"z.{k}", query, Deadline.after(0.0))
        if answer.complete:
            result.failures.append(f"zero-budget query z.{k} claimed complete=True")

    # -- Phase 2: recovery ----------------------------------------------------
    _cooldown(gate, template, config)

    result.thread_errors.extend(shared.errors)
    result.writer_lock_aborts = shared.writer_lock_aborts

    # -- Phase 3: replay verification ----------------------------------------
    _replay_and_check(shared, database, result)

    stats = gate.stats()
    result.admitted = stats["qos_admitted"]
    result.shed = stats["qos_shed"]
    result.shed_by_reason = stats["qos_shed_by_reason"]
    result.partial_answers = stats["qos_partial_answers"]
    result.complete_answers = stats["qos_complete_answers"]
    result.deadline_abandons = stats["qos_deadline_abandons"]
    result.state_transitions = stats["qos_state_transitions"]
    result.final_state = stats["qos_state"]
    result.breaker_opens = stats["breaker_opens"]
    result.swallowed_errors = (
        stats["swallowed_errors"] + stats["database_swallowed_errors"]
    )

    # -- Verdict ----------------------------------------------------------------
    if result.partial_answers < 1:
        result.failures.append("no deadline-degraded answers were produced")
    if result.final_state != QoSState.NORMAL:
        result.failures.append(
            f"governor did not return to NORMAL after the spike "
            f"(stuck in {result.final_state})"
        )

    result.ok = not result.failures and not result.thread_errors
    result.elapsed_seconds = time.perf_counter() - started
    if verbose:
        print(
            f"[overload] protected: admitted={result.admitted} shed={result.shed} "
            f"{result.shed_by_reason}"
        )
        print(
            f"[overload] answers: complete={result.complete_answers} "
            f"partial={result.partial_answers} abandons={result.deadline_abandons} "
            f"silently_incomplete={result.silently_incomplete} "
            f"subset_violations={result.subset_violations} "
            f"({result.queries_checked} replay-checked, "
            f"{result.changes_replayed} changes)"
        )
        print(
            f"[overload] governor: {result.state_transitions} transitions, "
            f"final={result.final_state}, breaker_opens={result.breaker_opens}, "
            f"writer_aborts={result.writer_lock_aborts}"
        )
        print(f"[overload] {'OK' if result.ok else 'FAIL'}")
        for failure in result.failures:
            print(f"[overload]   FAIL: {failure}")
        for error in result.thread_errors[:10]:
            print(f"[overload]   thread error: {error['thread']}: {error['error']}")
    return result


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.overload", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--clients", type=int, default=12)
    parser.add_argument("--writers", type=int, default=2)
    parser.add_argument("--queries", type=int, default=25, help="queries per client")
    parser.add_argument(
        "--deadline", type=float, default=0.02, help="per-query budget (seconds)"
    )
    parser.add_argument(
        "--max-concurrency", type=int, default=3, help="admission concurrency limit"
    )
    parser.add_argument("--report", metavar="PATH", help="write a JSON report")
    args = parser.parse_args(argv)

    config = OverloadConfig(
        seed=args.seed,
        clients=args.clients,
        writers=args.writers,
        queries_per_client=args.queries,
        deadline=args.deadline,
        max_concurrency=args.max_concurrency,
    )
    result = run_overload(config)
    if args.report:
        report = asdict(result)
        with open(args.report, "w") as handle:
            json.dump(report, handle, indent=2, default=str)
        print(f"[overload] report written to {args.report}")
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
