"""Smoke/shape tests for the benchmark drivers (tiny scales)."""

import json

import pytest

from repro.bench.figures import (
    build_experiment_database,
    measure_overhead,
    run_fig6,
    run_fig7,
    run_fig11,
    run_fig12,
    run_table1,
)
from repro.bench.reporting import Series, format_series, format_table
from repro.check import runner


class TestReporting:
    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 0.001]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_format_series_requires_shared_x(self):
        s1 = Series("one", [1, 2], [0.1, 0.2])
        s2 = Series("two", [1, 3], [0.3, 0.4])
        with pytest.raises(ValueError):
            format_series("x", [s1, s2])

    def test_format_series_output(self):
        s1 = Series("one", [1, 2], [0.1, 0.2])
        text = format_series("x", [s1])
        assert "one" in text and "0.1" in text


class TestTable1:
    def test_rows_cover_all_scales(self):
        rows = run_table1(scale_factors=(0.5, 1.0), verbose=False)
        assert len(rows) == 6
        scales = {r["scale"] for r in rows}
        assert scales == {0.5, 1.0}


class TestSimulationFigures:
    def test_fig6_shape(self):
        series = run_fig6(scale=0.002, hs=(1, 3), verbose=False)
        assert len(series) == 4  # 2 policies x 2 alphas
        for line in series:
            assert line.x == [1, 3]
            assert line.y[0] <= line.y[1] + 0.05  # rises with h

    def test_fig7_shape(self):
        series = run_fig7(scale=0.002, verbose=False)
        assert len(series) == 2
        for line in series:
            assert len(line.x) == 3
            # hit probability rises with N
            assert line.y[0] <= line.y[-1] + 0.05


class TestEngineMeasurement:
    @pytest.fixture(scope="class")
    def env(self):
        return build_experiment_database(
            scale_factor=1.0,
            downscale=5000,
            distinct_order_dates=20,
            suppliers=8,
            nations=3,
        )

    def test_measure_overhead_t1(self, env):
        m = measure_overhead(env, "T1", h=2, tuples_per_entry=2, runs=3)
        assert m.mean_overhead_seconds > 0
        assert m.hit_fraction == 1.0  # the hot cell is always resident
        assert m.mean_partial_tuples > 0

    def test_measure_overhead_t2(self, env):
        m = measure_overhead(env, "T2", h=2, tuples_per_entry=2, runs=3)
        assert m.mean_overhead_seconds > 0
        assert m.template == "T2"

    def test_overhead_far_below_simulated_execution(self, env):
        m = measure_overhead(env, "T1", h=2, tuples_per_entry=2, runs=3)
        assert m.mean_overhead_seconds < m.mean_simulated_execution_seconds


class TestOverloadDriver:
    """The QoS overload drill."""

    @pytest.fixture(scope="class")
    def outcome(self):
        from repro.bench import overload

        return overload.run(0)

    def test_run_passes_slo_story(self, outcome):
        assert outcome.ok, outcome.violations

    def test_no_silently_incomplete_answers(self, outcome):
        assert outcome.counts["silently_incomplete"] == 0
        assert outcome.counts["subset_violations"] == 0
        assert outcome.counts["queries_checked"] > 0

    def test_partial_answers_are_explicit(self, outcome):
        # The deterministic zero-budget probes guarantee at least these.
        assert outcome.counts["partial_answers"] >= 3

    def test_recovers_to_normal(self, outcome):
        assert not [v for v in outcome.violations if "NORMAL" in v]

    def test_cli_report(self, tmp_path, capsys):
        path = tmp_path / "overload.json"
        code = runner.main(["overload", "--report", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "ok   overload/0/none" in out
        data = json.loads(path.read_text())
        assert data["ok"] is True
        ((outcome,),) = [entry["outcomes"] for entry in data["drills"]]
        assert outcome["counts"]["silently_incomplete"] == 0
        assert outcome["counts"]["partial_answers"] >= 3


class TestAnalyticalFigures:
    def test_fig11_shapes(self):
        mv, pmv = run_fig11(verbose=False)
        assert mv.y[0] > pmv.y[0] * 100  # >= 2 orders of magnitude at p=0
        assert pmv.y[-1] == 0.0  # p=1 -> zero PMV maintenance
        assert all(a >= b for a, b in zip(mv.y, mv.y[1:]))
        assert all(a >= b for a, b in zip(pmv.y, pmv.y[1:]))

    def test_fig12_speedup_increases(self):
        line = run_fig12(verbose=False)
        finite = [y for y in line.y if y != float("inf")]
        assert all(a < b for a, b in zip(finite, finite[1:]))
        assert line.y[-1] == float("inf")


class TestFailoverDriver:
    """The replication failover drill."""

    @pytest.fixture(scope="class")
    def outcome(self):
        from repro.bench.failover import crash_sites_for, run_drill

        specs = crash_sites_for(0)
        return specs, [run_drill(0, spec) for spec in specs]

    def test_reaches_at_least_three_distinct_crash_sites(self, outcome):
        specs, _ = outcome
        assert len({spec.site for spec in specs}) >= 3

    def test_every_drill_passes(self, outcome):
        _, results = outcome
        assert results
        for result in results:
            assert result.ok, (result.handle, result.violations)
            assert result.counts["failed_over"] == 1

    def test_zero_acked_write_loss_is_checked_on_real_traffic(self, outcome):
        _, results = outcome
        # Every drill had acknowledged writes to verify against.
        assert all(result.counts["acked_records"] > 0 for result in results)

    def test_warm_standby_hit_rate_survives_promotion(self, outcome):
        from repro.bench.failover import HIT_FACTOR, PROBE_WINDOW

        _, results = outcome
        for result in results:
            counts = result.counts
            pre_rate = counts["pre_hits"] / counts["pre_queries"]
            assert counts["post_hits"] / PROBE_WINDOW >= HIT_FACTOR * pre_rate

    def test_lagged_replica_answers_were_served_and_verified(self, outcome):
        _, results = outcome
        assert sum(result.counts["replica_answers"] for result in results) > 0
        assert sum(result.counts["lagged_answers"] for result in results) > 0

    def test_fault_free_run_completes_and_converges(self):
        from repro.bench.failover import run_drill

        result = run_drill(3, None)
        assert result.ok, result.violations
        assert result.counts["completed"] == 1

    def test_cli_report(self, tmp_path, capsys):
        path = tmp_path / "failover.json"
        code = runner.main(["failover", "--seeds", "0", "--report", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "== failover: 5 points over seeds [0]" in out
        data = json.loads(path.read_text())
        assert data["ok"] is True
        (entry,) = data["drills"]
        assert entry["points"] >= 3
        assert all(not outcome["violations"] for outcome in entry["outcomes"])

    def test_cli_replay_one_point(self, tmp_path):
        path = tmp_path / "replay.json"
        code = runner.main(
            ["--replay", "failover/0/wal.append:30:torn", "--report", str(path)]
        )
        assert code == 0
        ((outcome,),) = [entry["outcomes"] for entry in json.loads(path.read_text())["drills"]]
        assert outcome["ok"] is True
        assert outcome["counts"]["failed_over"] == 1
