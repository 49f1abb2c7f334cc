import numpy as np
import pytest

from repro.index.sampling import sample_fingerprints
from repro.index.similarity import SimilarityIndex


class TestSimilarityIndexUnbounded:
    def test_lookup_insert(self):
        idx = SimilarityIndex()
        assert idx.lookup(5) is None
        idx.insert(5, 100)
        assert idx.lookup(5) == 100
        assert 5 in idx

    def test_newer_overwrites(self):
        idx = SimilarityIndex()
        idx.insert(5, 100)
        idx.insert(5, 200)
        assert idx.lookup(5) == 200
        assert len(idx) == 1

    def test_stats(self):
        idx = SimilarityIndex()
        idx.insert(1, 1)
        idx.lookup(1)
        idx.lookup(2)
        assert idx.stats.hits == 1
        assert idx.stats.lookups == 2
        assert idx.stats.hit_rate == 0.5

    def test_ram_bytes(self):
        idx = SimilarityIndex()
        for i in range(10):
            idx.insert(i, i)
        assert idx.ram_bytes == 160


class TestSimilarityIndexBounded:
    def test_capacity_enforced(self):
        idx = SimilarityIndex(capacity=10)
        for i in range(100):
            idx.insert(i, i)
        assert len(idx) == 10
        assert idx.stats.evictions == 90

    def test_overwrite_does_not_evict(self):
        idx = SimilarityIndex(capacity=2)
        idx.insert(1, 1)
        idx.insert(2, 2)
        idx.insert(1, 99)  # same key: overwrite, no eviction
        assert idx.stats.evictions == 0
        assert len(idx) == 2

    def test_eviction_deterministic(self):
        a = SimilarityIndex(capacity=5)
        b = SimilarityIndex(capacity=5)
        for i in range(50):
            a.insert(i, i)
            b.insert(i, i)
        assert sorted(a._map) == sorted(b._map)

    def test_survivors_resolvable(self):
        idx = SimilarityIndex(capacity=5)
        for i in range(20):
            idx.insert(i, i * 10)
        for key, bid in list(idx._map.items()):
            assert idx.lookup(key) == bid

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            SimilarityIndex(capacity=0)


class TestSampling:
    def test_sample_by_value(self):
        fps = np.arange(1000, dtype=np.uint64)
        s = sample_fingerprints(fps, rate=10)
        assert (s % 10 == 0).all()
        assert s.size == 100

    def test_sample_deterministic_by_value(self):
        fps = np.array([20, 21, 30], dtype=np.uint64)
        assert sample_fingerprints(fps, 10).tolist() == [20, 30]

    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            sample_fingerprints(np.zeros(1, dtype=np.uint64), 0)

