"""Perf-trajectory history: records, append/load, drift direction."""

import json

from repro.bench import (
    HISTORY_METRICS,
    append_history,
    drift_summary,
    history_record,
    load_history,
)


def _records():
    ingest = {"batch_seconds": 0.2}
    restore = {"restore_seconds": 0.025, "faa_seconds": 0.024}
    chunking = {"seqcdc_mb_per_s": 60.0, "speedup": 24.0}
    memory = {"peak_rss_mb": 160.0, "logical_bytes": 11_900_000_000}
    return ingest, restore, chunking, memory


class TestHistoryRecord:
    def test_headline_metrics_extracted(self):
        ingest, restore, chunking, memory = _records()
        rec = history_record(
            ingest=ingest, restore=restore, chunking=chunking, memory=memory
        )
        assert rec["ingest_batch_seconds"] == 0.2
        assert rec["restore_seconds"] == 0.025
        assert rec["chunking_mb_per_s"] == 60.0
        assert rec["peak_rss_mb"] == 160.0
        # every HISTORY_METRICS key is present
        assert set(HISTORY_METRICS) <= set(rec)

    def test_partial_inputs(self):
        rec = history_record(ingest={"batch_seconds": 0.3})
        assert rec["ingest_batch_seconds"] == 0.3
        assert "restore_seconds" not in rec

    def test_recorded_scalar_fields_are_ignored(self):
        """Committed records keep the ``scalar_seconds`` / ``speedup`` of
        the retired chunk-at-a-time measurement; they still load, and no
        history field is derived from them."""
        rec = history_record(
            ingest={"batch_seconds": 0.2, "scalar_seconds": 1.3, "speedup": 6.5}
        )
        assert rec == {"ingest_batch_seconds": 0.2}

    def test_committed_ingest_baseline_loads(self):
        import pathlib

        import repro
        from repro.bench import check_regression, load_baseline

        root = pathlib.Path(repro.__file__).resolve().parents[2]
        baseline = load_baseline(root / "BENCH_ingest.json")
        assert baseline is not None
        now = {"batch_seconds": baseline["ingest"]["batch_seconds"]}
        assert check_regression(now, baseline) is None

    def test_manifest_merged_first(self):
        rec = history_record(
            ingest={"batch_seconds": 0.1}, manifest={"commit": "abc", "seed": 1}
        )
        assert rec["commit"] == "abc"
        assert rec["ingest_batch_seconds"] == 0.1


class TestAppendLoad:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        append_history({"a": 1}, path)
        append_history({"a": 2}, path)
        assert load_history(path) == [{"a": 1}, {"a": 2}]

    def test_missing_file_is_empty(self, tmp_path):
        assert load_history(tmp_path / "none.jsonl") == []

    def test_malformed_lines_skipped(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        path.write_text('{"ok":1}\n{broken\n\n[1,2]\n{"ok":2}\n')
        assert load_history(path) == [{"ok": 1}, {"ok": 2}]

    def test_append_is_one_compact_line(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        append_history({"x": 1, "y": [1, 2]}, path)
        line = path.read_text()
        assert line.endswith("\n") and line.count("\n") == 1
        assert json.loads(line) == {"x": 1, "y": [1, 2]}


class TestDriftSummary:
    def test_empty_history_no_lines(self):
        assert drift_summary({"ingest_batch_seconds": 0.2}, []) == []

    def test_steady_within_epsilon(self):
        lines = drift_summary(
            {"ingest_batch_seconds": 0.201},
            [{"ingest_batch_seconds": 0.2}],
        )
        assert len(lines) == 1
        assert "steady" in lines[0]

    def test_lower_seconds_is_improving(self):
        (line,) = drift_summary(
            {"ingest_batch_seconds": 0.1}, [{"ingest_batch_seconds": 0.2}]
        )
        assert "improving" in line

    def test_higher_seconds_is_regressing(self):
        (line,) = drift_summary(
            {"ingest_batch_seconds": 0.4}, [{"ingest_batch_seconds": 0.2}]
        )
        assert "regressing" in line

    def test_higher_throughput_is_improving(self):
        (line,) = drift_summary(
            {"chunking_mb_per_s": 80.0}, [{"chunking_mb_per_s": 60.0}]
        )
        assert "improving" in line

    def test_compares_against_most_recent_entry_with_metric(self):
        history = [
            {"chunking_mb_per_s": 10.0},
            {"ingest_batch_seconds": 0.2},  # no chunking number here
        ]
        (line,) = drift_summary({"chunking_mb_per_s": 30.0}, history)
        assert "10" in line and "improving" in line

    def test_committed_history_wellformed(self):
        """The repo ships a seeded BENCH_history.jsonl; every line must
        parse and carry at least one headline metric."""
        import pathlib

        import repro

        root = pathlib.Path(repro.__file__).resolve().parents[2]
        path = root / "BENCH_history.jsonl"
        if not path.is_file():
            import pytest

            pytest.skip("no committed history")
        records = load_history(path)
        assert records
        for record in records:
            assert any(record.get(k) is not None for k in HISTORY_METRICS)
