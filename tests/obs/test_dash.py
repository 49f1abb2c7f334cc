"""Dashboard rendering: standalone HTML from the engine registry and runs."""

import json
from html.parser import HTMLParser

from repro.obs.dash import build_dashboard, render_dashboard

_VOID = {"meta", "br", "hr", "img", "input", "link", "line", "circle", "polyline"}


class _TagBalance(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.stack, self.errors = [], []

    def handle_starttag(self, tag, attrs):
        if tag not in _VOID:
            self.stack.append(tag)

    def handle_endtag(self, tag):
        if tag in _VOID:
            return
        if not self.stack or self.stack[-1] != tag:
            self.errors.append(tag)
        else:
            self.stack.pop()


def assert_valid_standalone_html(text):
    assert text.startswith("<!DOCTYPE html>")
    assert "</html>" in text
    # self-contained: no scripts, no external fetches
    assert "<script" not in text
    assert "http-equiv" not in text
    assert 'src="http' not in text and "url(" not in text
    checker = _TagBalance()
    checker.feed(text)
    assert not checker.errors, f"mismatched tags: {checker.errors}"
    assert not checker.stack, f"unclosed tags: {checker.stack}"


def _run():
    return {
        "path": "stats.json",
        "manifest": {"target": "fig4", "seed": 2012, "commit": "abc"},
        "metrics": {
            "timeseries": {
                "DeFrag.ts.cache_hit_ratio": {
                    "count": 4, "max_samples": 512, "resolution": 0.0,
                    "samples": [[0.0, 0.9], [1.0, 0.8], [2.0, 0.7], [3.0, 0.75]],
                }
            }
        },
    }


class TestRender:
    def test_empty_inputs_still_valid(self):
        assert_valid_standalone_html(render_dashboard())

    def test_full_inputs_valid(self):
        text = render_dashboard(runs=[_run()])
        assert_valid_standalone_html(text)
        assert "Engine registry" in text

    def test_run_section_sparklines_and_chips(self):
        text = render_dashboard(runs=[_run()])
        assert "Run: fig4" in text
        assert "seed" in text and "2012" in text
        assert "DeFrag.ts.cache_hit_ratio" in text
        assert "<svg" in text

    def test_manifest_text_is_escaped(self):
        run = _run()
        run["manifest"]["target"] = "<script>alert(1)</script>"
        text = render_dashboard(runs=[run])
        assert "<script" not in text
        assert "&lt;script&gt;" in text

    def test_single_series_no_legend(self):
        # every chart is single-series: the title names it, no legend box
        text = render_dashboard(runs=[_run()])
        assert "legend" not in text.lower()

    def test_light_and_dark_tokens_present(self):
        text = render_dashboard()
        assert "prefers-color-scheme: dark" in text
        assert 'data-theme="dark"' in text


class TestBuild:
    def test_builds_from_disk_artifacts(self, tmp_path):
        stats = tmp_path / "run.json"
        stats.write_text(json.dumps(
            {"manifest": _run()["manifest"], "metrics": _run()["metrics"]}
        ))
        out = build_dashboard(tmp_path / "dash.html", stats_paths=[stats])
        text = out.read_text()
        assert_valid_standalone_html(text)
        assert "Run: fig4" in text

    def test_missing_artifacts_tolerated(self, tmp_path):
        out = build_dashboard(
            tmp_path / "dash.html",
            stats_paths=[tmp_path / "nope.json"],
        )
        assert_valid_standalone_html(out.read_text())

    def test_malformed_snapshot_skipped(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = build_dashboard(tmp_path / "dash.html", stats_paths=[bad])
        assert_valid_standalone_html(out.read_text())

    def test_bare_snapshot_without_manifest(self, tmp_path):
        # pre-PR7 stats files are a bare registry snapshot
        stats = tmp_path / "old.json"
        stats.write_text(json.dumps(_run()["metrics"]))
        out = build_dashboard(tmp_path / "dash.html", stats_paths=[stats])
        text = out.read_text()
        assert_valid_standalone_html(text)
        assert "DeFrag.ts.cache_hit_ratio" in text
