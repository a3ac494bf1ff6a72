"""The drill runner: handles, point sampling, the report and exit codes."""

from __future__ import annotations

import json
import sys

import pytest

from repro.check import Drill, Outcome, Workers, handle, parse_handle, runner

DRILLS = {
    "stress", "overload", "failover", "torture", "torture-cdc",
    "cdc", "netload", "nemesis", "endurance",
}


def _fake(name: str, points: int = 3, failing: str | None = None) -> Drill:
    """A drill with ``points`` schedules per seed; ``failing`` fails."""

    def run(seed, schedule):
        violations = ["tampered"] if schedule == failing else []
        return Outcome(handle(name, seed, schedule), violations, {"ran": 1})

    return Drill(
        name, points=lambda seed: [f"p{i}" for i in range(points)], run=run, seeds=(0, 1)
    )


@pytest.fixture
def fakes(monkeypatch):
    """Swap every registered drill for a fake of the same name."""
    drills = {name: _fake(name) for name in runner.registry()}
    monkeypatch.setattr(runner, "registry", lambda: drills)
    return drills


def _report(path) -> dict:
    return json.loads(path.read_text())


class TestHandles:
    def test_registry_names_the_drills(self):
        assert set(runner.registry()) == DRILLS

    def test_every_drills_handles_round_trip(self):
        for name, drill in runner.registry().items():
            seed = drill.seeds[0]
            points = drill.points(seed)
            assert points, name
            for point in points:
                assert "/" not in point
                assert parse_handle(handle(name, seed, point)) == (name, seed, point)

    def test_a_handle_is_drill_seed_schedule(self):
        assert parse_handle("torture/12/wal.append:3:torn") == (
            "torture", 12, "wal.append:3:torn"
        )
        with pytest.raises(ValueError):
            parse_handle("torture/x/none")


class TestSampling:
    def test_budget_is_split_evenly_over_the_seeds(self):
        pairs = runner.plan(_fake("d", points=10), [0, 1], 6)
        assert [seed for seed, _ in pairs] == [0, 0, 0, 1, 1, 1]

    def test_even_stride_spans_the_enumeration(self):
        assert runner.sample(list(range(10)), 4) == [0, 2, 5, 7]
        assert runner.sample([1, 2], 4) == [1, 2]

    def test_two_torture_seeds_both_run_under_a_small_budget(self, tmp_path):
        """The budget is smaller than one seed's enumeration: both seeds
        still run, and the report lists both."""
        path = tmp_path / "torture.json"
        code = runner.main(
            ["torture", "--seeds", "0", "1", "--max-points", "4", "--report", str(path)]
        )
        assert code == 0
        (entry,) = _report(path)["drills"]
        assert entry["seeds"] == [0, 1]
        assert [parse_handle(o["handle"])[1] for o in entry["outcomes"]] == [0, 0, 1, 1]

    def test_only_seeds_that_ran_are_listed(self, fakes, tmp_path):
        path = tmp_path / "report.json"
        assert runner.main(["stress", "--max-points", "1", "--report", str(path)]) == 0
        (entry,) = _report(path)["drills"]
        assert entry["seeds"] == [0] and entry["points"] == 1


class TestReportAndExitCode:
    def test_all_covers_the_registry(self, fakes, tmp_path):
        path = tmp_path / "report.json"
        assert runner.main(["all", "--report", str(path)]) == 0
        report = _report(path)
        assert report["ok"] is True
        assert [entry["drill"] for entry in report["drills"]] == list(fakes)
        assert all(entry["points"] == 6 for entry in report["drills"])

    def test_one_schema_for_every_drill(self, fakes, tmp_path):
        from repro.bench import endurance, overload

        fakes["overload"] = overload.DRILL  # two real drills beside the fakes
        fakes["endurance"] = endurance.DRILL
        path = tmp_path / "report.json"
        assert runner.main(["all", "--report", str(path)]) == 0
        entries = _report(path)["drills"]
        assert {tuple(sorted(entry)) for entry in entries} == {
            ("counts", "drill", "ok", "outcomes", "points", "seeds")
        }
        outcomes = [outcome for entry in entries for outcome in entry["outcomes"]]
        assert {tuple(sorted(o)) for o in outcomes} == {
            ("counts", "handle", "ok", "violations")
        }
        assert all(isinstance(v, int) for o in outcomes for v in o["counts"].values())

    def test_a_failing_point_exits_1_and_prints_its_handle(
        self, fakes, tmp_path, capsys
    ):
        fakes["cdc"] = _fake("cdc", failing="p1")
        path = tmp_path / "report.json"
        assert runner.main(["all", "--report", str(path)]) == 1
        out = capsys.readouterr().out
        assert "replay: python -m repro.check --replay cdc/0/p1" in out
        assert "replay: python -m repro.check --replay cdc/1/p1" in out
        report = _report(path)
        assert report["ok"] is False
        (cdc,) = [entry for entry in report["drills"] if entry["drill"] == "cdc"]
        failed = [o["handle"] for o in cdc["outcomes"] if not o["ok"]]
        assert failed == ["cdc/0/p1", "cdc/1/p1"]
        assert runner.main(["--replay", "cdc/1/p1"]) == 1
        assert runner.main(["--replay", "cdc/1/p2"]) == 0

    def test_a_drill_that_raises_is_a_failing_outcome(self, fakes, capsys):
        def explode(seed, schedule):
            raise RuntimeError("boom")

        fakes["netload"] = Drill("netload", points=lambda seed: ["none"], run=explode)
        assert runner.main(["netload"]) == 1
        out = capsys.readouterr().out
        assert "FAIL netload/0/none" in out and "RuntimeError: boom" in out

    @pytest.mark.parametrize("argv", [[], ["--replay", "nosuch/0/none"], ["--replay", "x"]])
    def test_bad_invocations_are_usage_errors(self, fakes, argv):
        with pytest.raises(SystemExit) as exit_info:
            runner.main(argv)
        assert exit_info.value.code == 2


class TestWorkers:
    def test_a_raising_body_is_recorded_with_its_location(self):
        def boom():
            raise RuntimeError("boom")

        workers = Workers()
        assert workers.run([("t0", boom, ()), ("t1", lambda: None, ())]) == []
        (error,) = workers.errors
        assert error.startswith("thread t0 died: RuntimeError: boom (test_runner.py:")

    def test_concurrent_lock_aborts_are_all_counted(self):
        """More threads than cores, a short switch interval: a lost
        update of the shared count would show as a short total."""
        workers = Workers()

        def refuse(index):
            for _ in range(2000):
                workers.lock_aborts.append(f"w{index}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            hung = workers.run([(f"w{i}", refuse, (i,)) for i in range(8)])
        finally:
            sys.setswitchinterval(interval)
        assert hung == [] and workers.errors == []
        assert len(workers.lock_aborts) == 8 * 2000
