"""Markdown report generator tests + DeFrag telemetry extras."""

import pytest

from repro.experiments.common import clear_memo
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import generate_markdown


@pytest.fixture(autouse=True)
def _clear():
    yield
    clear_memo()


@pytest.fixture(scope="module")
def report_text():
    text = generate_markdown(ExperimentConfig.small())
    clear_memo()
    return text


class TestReport:
    def test_contains_every_figure(self, report_text):
        for fig in ("Fig2", "Fig3", "Fig4", "Fig5", "Fig6"):
            assert fig in report_text

    def test_contains_config(self, report_text):
        assert "## Configuration" in report_text
        assert "alpha: 0.1" in report_text

    def test_markdown_tables_wellformed(self, report_text):
        lines = report_text.splitlines()
        header_rows = [i for i, l in enumerate(lines) if l.startswith("| generation")]
        assert header_rows
        for i in header_rows:
            assert lines[i + 1].startswith("|---")
            assert lines[i + 2].startswith("| 1 ")

    def test_cli_save_writes_generated_markdown(self, tmp_path, report_text, capsys):
        from repro.cli import main

        assert main(["report", "--scale", "small", "--save", str(tmp_path)]) == 0
        assert (tmp_path / "report.md").read_text() == report_text
        assert capsys.readouterr().out == report_text + "\n"

    def test_cli_report(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["report", "--scale", "small", "--save", str(tmp_path)]) == 0
        assert (tmp_path / "report.md").exists()
        assert "Fig4" in capsys.readouterr().out


class TestDiagnosticsSection:
    """The report's observability appendix: per-phase span pivot plus the
    SPL and prefetch-yield histograms collected while the figures ran."""

    def test_section_present(self, report_text):
        assert "## Diagnostics" in report_text
        # diagnostics come last, after every figure section
        assert report_text.index("## Diagnostics") > report_text.index("Fig6")

    def test_per_phase_table(self, report_text):
        assert "### Per-phase simulated time (seconds)" in report_text
        start = report_text.index("### Per-phase simulated time")
        block = report_text[start : start + 2000]
        assert "| engine | cpu | index_fault | meta_prefetch | container_append | segment |" in block
        # every engine the figures exercised has a row
        for engine in ("DeFrag", "DDFS"):
            assert f"| {engine} |" in block

    def test_spl_histogram(self, report_text):
        assert "SPL per referenced stored segment" in report_text
        assert "DeFrag.spl" in report_text

    def test_prefetch_yield_histogram(self, report_text):
        assert "cache hits per prefetched unit" in report_text
        assert "prefetch_yield" in report_text

    def test_histogram_tables_have_totals(self, report_text):
        start = report_text.index("## Diagnostics")
        block = report_text[start:]
        assert "| bucket | count |" in block
        assert "| **total** (mean " in block

    def test_phase_rows_are_numeric(self, report_text):
        start = report_text.index("### Per-phase simulated time")
        lines = report_text[start:].splitlines()
        rows = [ln for ln in lines if ln.startswith("| DeFrag |")]
        assert rows
        cells = [c.strip() for c in rows[0].strip("|").split("|")][1:]
        values = [float(c) for c in cells]
        assert len(values) == 5
        # cpu + index_fault + meta_prefetch + container_append == segment
        assert sum(values[:4]) == pytest.approx(values[4], rel=1e-6)

    def test_diagnostics_empty_without_activity(self):
        from repro.experiments.report import _diagnostics_section
        from repro.obs import MetricsRegistry

        text = _diagnostics_section(MetricsRegistry())
        assert text.startswith("## Diagnostics")


class TestDeFragTelemetry:
    def test_extras_present_and_consistent(self, segmenter, small_jobs):
        from repro.core.defrag import DeFragEngine
        from repro.core.policy import SPLThresholdPolicy
        from repro.dedup.base import EngineResources
        from repro.dedup.pipeline import run_workload
        from tests.conftest import TEST_PROFILE

        res = EngineResources.create(
            profile=TEST_PROFILE, container_bytes=256 * 1024, expected_entries=100_000
        )
        res.store.seal_seeks = 0
        eng = DeFragEngine(
            res, policy=SPLThresholdPolicy(0.3),
            bloom_capacity=100_000, cache_containers=8,
        )
        reports = run_workload(eng, small_jobs, segmenter)
        for r in reports:
            assert "spl_groups_referenced" in r.extras
            assert r.extras["spl_groups_rewritten"] <= r.extras["spl_groups_referenced"]
            assert r.extras["segments_with_rewrites"] <= len(r.segments)
            if r.rewritten_dup_bytes > 0:
                assert r.extras["spl_groups_rewritten"] > 0
