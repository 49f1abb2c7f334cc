"""Determinism: same seed -> bit-identical experiment series (the whole
point of a simulated clock), different seed -> different workload."""

import pytest

from repro.experiments.common import FigureResult, clear_memo
from repro.experiments.config import ExperimentConfig
from tests.experiments import run_experiment


@pytest.fixture(autouse=True)
def _clear():
    yield
    clear_memo()


class TestDeterminism:
    def test_same_seed_identical_series(self):
        cfg = ExperimentConfig.small()
        a = run_experiment("fig2", cfg)
        b = run_experiment("fig2", cfg)
        assert a.series == b.series

    def test_different_seed_different_series(self):
        a = run_experiment("fig2", ExperimentConfig.small().with_(seed=1))
        b = run_experiment("fig2", ExperimentConfig.small().with_(seed=2))
        assert a.series != b.series

    def test_parallel_jobs_identical_series(self):
        cfg = ExperimentConfig.small()
        a = run_experiment("fig2", cfg)
        clear_memo()
        b = run_experiment("fig2", cfg, jobs=2)
        assert a.series == b.series
        assert a.notes == b.notes


class TestFigureResult:
    def make(self):
        return FigureResult(
            figure="F",
            title="t",
            x_label="gen",
            x=[1, 2],
            series={"a": [1.5, 2.5], "long-name-series": [3.0, 4.0]},
            notes={"note": "hello"},
        )

    def test_table_contains_everything(self):
        text = self.make().table()
        assert "F: t" in text
        assert "long-name-series" in text
        assert "1.5" in text
        assert "# note: hello" in text

    def test_table_custom_format(self):
        text = self.make().table(fmt="{:.3f}")
        assert "1.500" in text

    def test_endpoint(self):
        assert self.make().endpoint("a") == 2.5
        with pytest.raises(KeyError):
            self.make().endpoint("zzz")

    def test_rows_align(self):
        lines = self.make().table().splitlines()
        header, row1, row2 = lines[1], lines[2], lines[3]
        assert len(header) == len(row1) == len(row2)
