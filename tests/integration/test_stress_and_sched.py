"""The deterministic interleaving scheduler and the stress driver.

Covers the PR 3 serving-layer claims end to end at tiny scales:

- :class:`repro.faults.InterleavingScheduler` replays the same seed as
  the same decision trace and orders managed threads cooperatively;
- :mod:`repro.bench.stress` proves a concurrent run row-for-row
  equivalent to its single-threaded op-log replay, in both free-running
  and scheduled mode.
"""

import threading

from repro.bench.stress import StressConfig, run_stress, sweep_interleavings
from repro.faults import InterleavingScheduler


def _run_counter_workload(seed: int) -> tuple[list[str], list[str]]:
    """Three managed workers appending at switch points; returns
    (event order, decision trace)."""
    sched = InterleavingScheduler(seed)
    events: list[str] = []

    def work(name: str) -> None:
        for step in range(4):
            sched.switch(f"{name}.{step}")
            events.append(f"{name}.{step}")

    threads = [sched.spawn(f"w{i}", work, f"w{i}") for i in range(3)]
    for thread in threads:
        thread.start()
    sched.launch()
    for thread in threads:
        thread.join(10.0)
    assert not any(thread.is_alive() for thread in threads)
    return events, list(sched.trace)


class TestInterleavingScheduler:
    def test_same_seed_same_trace_and_event_order(self):
        events1, trace1 = _run_counter_workload(7)
        events2, trace2 = _run_counter_workload(7)
        assert trace1 == trace2
        assert events1 == events2
        assert len(events1) == 12  # every step of every worker ran

    def test_different_seeds_diverge(self):
        # Not guaranteed for every pair, but for this workload these
        # two seeds are known to pick different interleavings.
        _, trace_a = _run_counter_workload(0)
        _, trace_b = _run_counter_workload(1)
        assert trace_a != trace_b

    def test_unmanaged_threads_pass_through(self):
        sched = InterleavingScheduler(0)
        # The calling (unregistered) thread must not be perturbed.
        sched.switch("anywhere")
        sched.block("anywhere")
        sched.resume()
        sched.unblock(threading.get_ident())
        assert sched.decisions == 0

    def test_handle_and_stats(self):
        sched = InterleavingScheduler(42)
        assert (sched.seed, sched.decisions, sched.deadlocks_seen) == (42, 0, 0)


class TestStressDriver:
    def test_free_running_smoke(self):
        config = StressConfig(
            seed=3, clients=3, writers=1, queries_per_client=4, ops_per_writer=4
        )
        result = run_stress(config)
        assert result.ok, (result.mismatches, result.thread_errors)
        assert result.queries_checked == 12
        assert result.thread_errors == []
        assert result.handle == "free/3"
        # Nothing may stay locked once every worker has finished.
        assert result.lock_stats["active_objects"] == 0
        assert result.lock_stats["queued"] == 0

    def test_aborted_statements_leave_no_trace(self):
        """The aborting writer: a statement that fails after its prepare
        phase releases its X lock, keeps the old row and its index
        entries, logs nothing — so the WAL still replays to the live
        layout and no answer ever sees the aborted values."""
        config = StressConfig(
            seed=0, clients=2, writers=1, queries_per_client=4, ops_per_writer=6,
            deterministic=True,
        )
        result = run_stress(config)
        assert result.aborted_statements == 2 * config.ops_per_writer
        assert result.ok, (result.mismatches, result.thread_errors)
        assert result.lock_stats["active_objects"] == 0

    def test_scheduled_run_is_deterministic(self):
        outcomes = sweep_interleavings(
            [1], clients=2, writers=1, queries_per_client=3, ops_per_writer=3
        )
        (outcome,) = outcomes
        assert outcome["ok"], outcome
        assert outcome["deterministic_replay"]
        assert outcome["handle"] == "sched/1"
        assert outcome["decisions"] > 0
