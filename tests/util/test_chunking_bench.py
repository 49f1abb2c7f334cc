"""The chunking bench: measurement smoke + both regression gates.

The measurement itself runs on a tiny buffer (CI-cheap); the gate logic
is unit-tested against fabricated records so both failure modes — fresh
wall-clock regression and loss of the chunker's speed over the committed
exact-sweep rate — have pinned messages. Cut correctness against the
exact sweep is the oracle suite's job
(``tests/chunking/test_seqcdc_equivalence.py``).
"""

from repro.bench import (
    CHUNKING_BASELINE_FILENAME,
    CHUNKING_SPEEDUP_FLOOR,
    check_chunking_regression,
    chunking_fixture,
    load_chunking_baseline,
    measure_chunking,
    run_chunking_bench,
)

SMALL = 256 * 1024


class TestMeasurement:
    def test_fixture_deterministic(self):
        assert chunking_fixture(1024) == chunking_fixture(1024)
        assert chunking_fixture(1024, seed=1) != chunking_fixture(1024, seed=2)

    def test_measure_chunking_smoke(self):
        data = chunking_fixture(SMALL)
        result = measure_chunking(data, repeats=1)
        assert result["seconds"] > 0
        assert result["mb_per_s"] > 0
        assert result["n_chunks"] >= SMALL // (32 * 1024)  # >= at max_size

    def test_run_chunking_bench_quick_record(self):
        record = run_chunking_bench(repeats=1, nbytes=SMALL)
        for key in (
            "seqcdc_seconds",
            "seqcdc_mb_per_s",
            "n_chunks",
            "fingerprint_mb_per_s",
            "nbytes",
        ):
            assert key in record, key
        assert "exact_seconds" not in record  # the sweep is a test oracle


class TestGates:
    BASELINE = {
        "chunking": {"seqcdc_seconds": 0.10, "exact_mb_per_s": 2.5}
    }

    @staticmethod
    def result(seconds=0.11, mb_per_s=60.0):
        return {"seqcdc_seconds": seconds, "seqcdc_mb_per_s": mb_per_s}

    def test_within_both_gates_passes(self):
        assert check_chunking_regression(self.result(), self.BASELINE) is None

    def test_wall_clock_regression_fails(self):
        msg = check_chunking_regression(self.result(seconds=0.30), self.BASELINE)
        assert msg is not None and "regressed" in msg

    def test_speedup_floor_fails(self):
        slow = self.result(mb_per_s=CHUNKING_SPEEDUP_FLOOR * 2.5 - 1)
        msg = check_chunking_regression(slow, self.BASELINE)
        assert msg is not None and "below" in msg

    def test_gates_tolerate_partial_baseline(self):
        """A baseline missing either field only runs the other gate."""
        assert (
            check_chunking_regression(
                self.result(seconds=99), {"chunking": {"exact_mb_per_s": 2.5}}
            )
            is None
        )
        assert (
            check_chunking_regression(
                self.result(mb_per_s=0.1),
                {"chunking": {"seqcdc_seconds": 0.10}},
            )
            is None
        )

    def test_unwrapped_record_accepted(self):
        """The gate accepts both the file record and its inner dict."""
        assert check_chunking_regression(self.result(), self.BASELINE["chunking"]) is None


class TestCommittedBaseline:
    def test_committed_baseline_loads_and_is_wellformed(self):
        baseline = load_chunking_baseline()
        if baseline is None:  # running outside the repo root
            import pathlib

            root = pathlib.Path(__file__).resolve().parents[2]
            baseline = load_chunking_baseline(root / CHUNKING_BASELINE_FILENAME)
        assert baseline is not None
        rec = baseline["chunking"]
        assert rec["seqcdc_seconds"] > 0
        assert rec["exact_mb_per_s"] > 0
        assert rec["identical_cuts"] is True
        assert rec["seqcdc_mb_per_s"] >= CHUNKING_SPEEDUP_FLOOR * rec["exact_mb_per_s"]
