"""The deterministic interleaving scheduler and the stress driver.

Covers the serving-layer claims end to end:

- :class:`repro.faults.InterleavingScheduler` replays the same seed as
  the same decision trace and orders managed threads cooperatively;
- the stress drill (:mod:`repro.bench.stress`) proves a concurrent run
  row-for-row equivalent to its single-threaded op-log replay, in both
  free-running and scheduled mode.
"""

import threading

from repro.bench import stress
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
        result = stress.run(3, "free")
        assert result.ok, result.violations
        assert result.counts["queries_checked"] == 8 * 25
        assert result.handle == "stress/3/free"
        # Nothing may stay locked once every worker has finished.
        assert result.counts["locks_held_at_end"] == 0
        assert result.counts["lock_waiters_at_end"] == 0

    def test_aborted_statements_leave_no_trace(self):
        """The aborting writer: a statement that fails after its prepare
        phase releases its X lock, keeps the old row and its index
        entries, logs nothing — so the WAL still replays to the live
        layout and no answer ever sees the aborted values."""
        result = stress.run(0, "sched")
        _clients, _writers, _queries, ops = stress.SIZES["sched"]
        assert result.counts["aborted_statements"] == 2 * ops
        assert result.ok, result.violations
        assert result.counts["locks_held_at_end"] == 0

    def test_scheduled_run_is_deterministic(self):
        """A ``sched`` run reruns itself: both must pass and take the
        identical decision trace."""
        result = stress.run(1, "sched")
        assert result.ok, result.violations
        assert result.handle == "stress/1/sched"
        assert result.counts["decisions"] > 0
