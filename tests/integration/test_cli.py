"""Tests for the ``python -m repro.bench`` command-line runner."""

import pytest

from repro.bench.__main__ import EXPERIMENTS, main


class TestCLI:
    def test_single_experiment(self, capsys, monkeypatch):
        monkeypatch.delenv("PMV_BENCH_SCALE", raising=False)
        code = main(["fig11"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fig11" in out
        assert "MV TW (I/Os)" in out

    def test_multiple_experiments(self, capsys):
        code = main(["fig11", "fig12"])
        out = capsys.readouterr().out
        assert code == 0
        assert "speedup ratio" in out
        assert out.index("fig11") < out.index("fig12")

    def test_scale_override(self, capsys, monkeypatch):
        monkeypatch.delenv("PMV_BENCH_SCALE", raising=False)
        code = main(["fig7", "--scale", "0.002"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.20%" in out

    def test_downscale_and_runs_override(self, capsys, monkeypatch):
        monkeypatch.delenv("PMV_BENCH_DOWNSCALE", raising=False)
        monkeypatch.delenv("PMV_BENCH_RUNS", raising=False)
        code = main(["table1", "--downscale", "4000", "--runs", "3"])
        assert code == 0
        assert "customer" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_all_covers_every_experiment(self):
        assert set(EXPERIMENTS) == {
            "table1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
        }


class TestJSONExport:
    def test_json_dump(self, tmp_path, capsys):
        import json

        path = tmp_path / "results.json"
        code = main(["fig11", "fig12", "--json", str(path)])
        assert code == 0
        data = json.loads(path.read_text())
        assert set(data) == {"fig11", "fig12"}
        mv, pmv = data["fig11"]
        assert mv["label"].startswith("MV")
        assert len(mv["x"]) == len(mv["y"])
        assert data["fig12"]["label"] == "speedup ratio"
        assert data["fig12"]["y"][-1] == "inf" or data["fig12"]["y"][-1] == float("inf")
