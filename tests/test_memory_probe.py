"""In-process checks of the bounded-RSS memory driver at toy scale.

The real measurement runs ``python -m repro.memory`` as its own
process (the nightly workflow's xlarge gate); these tests drive
the same pipeline in-process at small scale to pin down the record
shape, the gate logic, and that spilling is genuinely exercised.
"""

import json

import pytest

from repro.memory import check_memory_gate, load_memory_budget, run_memory_probe


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    spill = tmp_path_factory.mktemp("spill")
    return run_memory_probe(
        scale="small",
        generations=3,
        resident_containers=2,
        spill_dir=str(spill),
        restore_last=2,
    )


class TestProbeRecord:
    def test_record_shape(self, record):
        for key in (
            "kind",
            "scale",
            "engine",
            "n_backups",
            "logical_bytes",
            "unique_fingerprints",
            "containers_sealed",
            "spill",
            "ingest_sim_seconds",
            "restore_seeks",
            "wall_seconds",
            "peak_rss_mb",
        ):
            assert key in record, key
        assert record["kind"] == "memory"
        assert record["n_backups"] == 3
        assert record["restore_backups"] == 2
        assert json.dumps(record)  # JSON-able end to end

    def test_pipeline_did_real_work(self, record):
        assert record["logical_bytes"] > 0
        assert record["containers_sealed"] > 2
        assert record["ingest_sim_seconds"] > 0
        assert record["restore_seeks"] >= 0

    def test_spill_actually_exercised(self, record):
        spill = record["spill"]
        assert spill["spilled"] == record["containers_sealed"]
        assert spill["evictions"] > 0
        assert spill["bytes_spilled"] > 0

    def test_peak_rss_measured_on_this_platform(self, record):
        # Linux/macOS both report ru_maxrss; 0 would defeat the gate
        assert record["peak_rss_mb"] > 0


class TestGate:
    def test_within_budget_passes(self, record):
        baseline = {"budget_rss_mb": record["peak_rss_mb"] * 10}
        assert check_memory_gate(record, baseline) is None

    def test_over_budget_fails(self, record):
        baseline = {"budget_rss_mb": 0.001}
        failure = check_memory_gate(record, baseline)
        assert failure is not None
        assert "exceeds" in failure

    def test_unmeasurable_rss_fails_loudly(self):
        failure = check_memory_gate(
            {"peak_rss_mb": 0.0}, {"budget_rss_mb": 100.0}
        )
        assert failure is not None
        assert "unmeasurable" in failure

    def test_missing_baseline_is_none(self, tmp_path):
        assert load_memory_budget(str(tmp_path / "nope.json")) is None

    def test_committed_baseline_loads(self):
        baseline = load_memory_budget("BENCH_memory.json")
        assert baseline is not None
        assert baseline["budget_rss_mb"] > 0
        assert baseline["memory"]["scale"] == "xlarge"
        assert baseline["memory"]["logical_bytes"] >= 10 * 10**9
