"""Tests for the extended related-work engines: iDedup and SparseIndex."""

import pytest

from repro.chunking.base import ChunkStream
from repro.dedup.base import EngineResources
from repro.dedup.idedup import IDedupEngine
from repro.dedup.pipeline import GroundTruth, run_backup, run_workload
from repro.dedup.sparse import SparseIndexEngine
from repro.workloads.generators import BackupJob

from tests.conftest import TEST_PROFILE, make_stream


def fresh_resources():
    res = EngineResources.create(
        profile=TEST_PROFILE, container_bytes=256 * 1024, expected_entries=100_000
    )
    res.store.seal_seeks = 0
    return res


def idedup(min_sequence=8):
    return IDedupEngine(
        fresh_resources(), min_sequence=min_sequence,
        bloom_capacity=100_000, cache_containers=8,
    )


def sparse(**kw):
    return SparseIndexEngine(fresh_resources(), **kw)


def run_stream(engine, stream, segmenter, gen=0, gt=None):
    return run_backup(engine, BackupJob(gen, "t", stream), segmenter, gt)


class TestIDedup:
    def test_long_sequences_deduplicated(self, segmenter):
        eng = idedup(min_sequence=4)
        s = make_stream(400, seed=1)
        run_stream(eng, s, segmenter, 0)
        report = run_stream(eng, s, segmenter, 1)
        # the repeat stream is one long duplicate sequence per container
        assert report.removed_dup_bytes / s.total_bytes > 0.9

    def test_short_sequences_rewritten(self, segmenter):
        eng = idedup(min_sequence=8)
        gen0 = make_stream(400, seed=2)
        run_stream(eng, gen0, segmenter, 0)
        # gen1: isolated duplicates (every 16th chunk) -> runs of length 1
        fps = make_stream(400, seed=3).fps.copy()
        fps[::16] = gen0.fps[::16]
        gen1 = ChunkStream(fps, gen0.sizes)
        report = run_stream(eng, gen1, segmenter, 1)
        assert report.removed_dup_bytes == 0
        assert report.rewritten_dup_bytes > 0

    def test_threshold_one_is_exact_dedup(self, segmenter):
        eng = idedup(min_sequence=1)
        s = make_stream(300, seed=4)
        run_stream(eng, s, segmenter, 0)
        report = run_stream(eng, s, segmenter, 1)
        assert report.removed_dup_bytes == s.total_bytes
        assert report.rewritten_dup_bytes == 0

    def test_never_misses(self, segmenter, small_jobs):
        eng = idedup()
        reports = run_workload(eng, small_jobs, segmenter)
        for r in reports:
            assert r.missed_dup_bytes == 0

    def test_partition_identity(self, segmenter, small_jobs):
        eng = idedup()
        reports = run_workload(eng, small_jobs, segmenter)
        for r in reports:
            assert (
                r.written_new_bytes + r.removed_dup_bytes + r.rewritten_dup_bytes
                == r.logical_bytes
            )

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            idedup(min_sequence=0)

    def test_rewrite_counters(self, segmenter):
        eng = idedup(min_sequence=1000)  # rewrite every duplicate
        s = make_stream(100, seed=5)
        run_stream(eng, s, segmenter, 0)
        run_stream(eng, s, segmenter, 1)
        assert eng.total_rewritten_chunks == 100


class TestSparseIndex:
    def test_repeat_stream_mostly_found(self, segmenter):
        eng = sparse(sample_rate=8, max_champions=2)
        s = make_stream(500, seed=6)
        run_stream(eng, s, segmenter, 0)
        report = run_stream(eng, s, segmenter, 1)
        assert report.removed_dup_bytes / s.total_bytes > 0.8

    def test_near_exact_misses_possible(self, segmenter):
        """With an absurd sample rate nothing is ever hooked: every
        duplicate is missed."""
        eng = sparse(sample_rate=2**40)
        gt = GroundTruth()
        s = make_stream(300, seed=7)
        run_stream(eng, s, segmenter, 0, gt)
        report = run_stream(eng, s, segmenter, 1, gt)
        assert report.missed_dup_bytes == report.true_dup_bytes

    def test_never_touches_disk_index(self, segmenter):
        eng = sparse(sample_rate=8)
        s = make_stream(200, seed=8)
        run_stream(eng, s, segmenter, 0)
        run_stream(eng, s, segmenter, 1)
        assert eng.res.index.stats.lookups == 0

    def test_manifest_loads_charged(self, segmenter):
        eng = sparse(sample_rate=8)
        s = make_stream(400, seed=9)
        run_stream(eng, s, segmenter, 0)
        before = eng.res.disk.stats.snapshot()
        report = run_stream(eng, s, segmenter, 1)
        assert report.extras["manifest_loads"] > 0
        assert eng.res.disk.stats.delta_since(before).seeks > 0

    def test_hook_history_bounded(self, segmenter):
        eng = sparse(sample_rate=4, hook_history=2)
        s = make_stream(200, seed=10)
        for gen in range(5):
            run_stream(eng, s, segmenter, gen)
        assert all(len(h) <= 2 for h in eng._hooks.values())

    def test_partition_identity(self, segmenter, small_jobs):
        eng = sparse()
        reports = run_workload(eng, small_jobs, segmenter)
        for r in reports:
            assert (
                r.written_new_bytes + r.removed_dup_bytes + r.rewritten_dup_bytes
                == r.logical_bytes
            )

    def test_deterministic(self, segmenter, small_jobs):
        """Two runs of one workload agree on every report, recipe,
        counter and the simulated clock (SparseIndex has one ingest path,
        so the segment-ladder oracle suite does not cover it)."""
        from tests.dedup.test_batch_equivalence import state_fingerprint

        prints = []
        for _ in range(2):
            eng = sparse(sample_rate=8, cache_manifests=4)
            reports = run_workload(eng, small_jobs, segmenter)
            prints.append(state_fingerprint(eng.res, reports, eng))
        assert prints[0] == prints[1]

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            sparse(sample_rate=0)
        with pytest.raises(ValueError):
            sparse(max_champions=0)
