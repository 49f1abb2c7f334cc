"""Tests for result persistence and the extension experiments."""

import json

import pytest

from repro.experiments import extensions
from repro.experiments.common import FigureResult, clear_memo
from repro.experiments.config import ExperimentConfig
from repro.experiments.io import load_json, save_csv, save_json
from tests.experiments import run_experiment


@pytest.fixture(autouse=True)
def _clear():
    yield
    clear_memo()


def sample_result():
    return FigureResult(
        figure="FigX",
        title="test figure",
        x_label="generation",
        x=[1, 2, 3],
        series={"a": [1.0, 2.0, 3.0], "b": [0.5, 0.25, 0.125]},
        notes={"k": "v"},
    )


class TestJsonRoundtrip:
    def test_roundtrip(self, tmp_path):
        path = save_json(sample_result(), tmp_path / "r.json")
        loaded = load_json(path)
        r = sample_result()
        assert loaded.figure == r.figure
        assert loaded.x == r.x
        assert loaded.series == r.series
        assert loaded.notes == r.notes

    def test_json_is_valid(self, tmp_path):
        path = save_json(sample_result(), tmp_path / "r.json")
        payload = json.loads(path.read_text())
        assert payload["figure"] == "FigX"
        assert payload["series"]["a"] == [1.0, 2.0, 3.0]


class TestCsv:
    def test_csv_layout(self, tmp_path):
        path = save_csv(sample_result(), tmp_path / "r.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "generation,a,b"
        assert lines[1].startswith("1,1.0,0.5")
        assert len(lines) == 4


class TestCliSave:
    def test_save_writes_files(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["fig2", "--scale", "small", "--save", str(tmp_path)]) == 0
        assert (tmp_path / "fig2.json").exists()
        assert (tmp_path / "fig2.csv").exists()
        loaded = load_json(tmp_path / "fig2.json")
        assert loaded.figure == "Fig2"


class TestExtensions:
    def test_related_work_rows(self, monkeypatch):
        monkeypatch.setattr(extensions, "RELATED_ENGINES", ("DDFS-Like", "DeFrag"))
        res = run_experiment("related-work", ExperimentConfig.small())
        assert set(res.series) == {"DDFS-Like", "DeFrag"}
        for values in res.series.values():
            assert len(values) == 4
            assert values[0] > 0  # ingest MB/s
            assert 0 < values[1] <= 1.0  # efficiency
            assert values[2] > 1.0  # compression
            assert values[3] > 0  # restore MB/s
        # selective dedup must restore at least as fast as plain DDFS
        assert res.series["DeFrag"][3] >= res.series["DDFS-Like"][3] * 0.9

    def test_gc_study_reclaims(self, monkeypatch):
        monkeypatch.setattr(extensions, "GC_RETAIN_LAST", 2)
        monkeypatch.setattr(extensions, "GC_MIN_UTILIZATION", 0.8)
        res = run_experiment("gc-study", ExperimentConfig.small())
        values = res.series["value"]
        before_mib, after_mib, reclaimed = values[0], values[1], values[2]
        assert after_mib <= before_mib
        assert reclaimed >= 0
        util_before, util_after = values[3], values[4]
        assert util_after >= util_before - 1e-9
