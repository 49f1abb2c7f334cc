"""The word-fold fingerprint family: batch fold == scalar reference.

``fingerprint_segments_fast`` is a different *family* from the BLAKE2b
path (not a drop-in hash), but within the family the vectorized batch
fold must match the scalar reference
(:func:`tests.oracle.fold_oracle.fingerprint64_fast`) bit-for-bit per
segment, for every segment-size mix and batch granularity.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chunking.fingerprint import (
    fingerprint_segments,
    fingerprint_segments_fast,
)
from repro.chunking.gear import GearChunker

from tests.oracle.fold_oracle import fingerprint64_fast


def random_bytes(n: int, seed: int = 0) -> bytes:
    return bytes(np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8))


def boundaries_from_sizes(sizes):
    return np.concatenate(
        [[0], np.cumsum(np.asarray(sizes, dtype=np.int64))]
    )


class TestBatchMatchesScalar:
    @settings(deadline=None, max_examples=60)
    @given(
        sizes=st.lists(st.integers(1, 300), min_size=1, max_size=40),
        data_seed=st.integers(0, 2**31 - 1),
    )
    def test_segment_mix(self, sizes, data_seed):
        bounds = boundaries_from_sizes(sizes)
        data = random_bytes(int(bounds[-1]), data_seed)
        got = fingerprint_segments_fast(data, bounds)
        expected = [
            fingerprint64_fast(data[int(bounds[i]) : int(bounds[i + 1])])
            for i in range(len(sizes))
        ]
        assert got.tolist() == expected

    @settings(deadline=None, max_examples=30)
    @given(
        sizes=st.lists(st.integers(1, 500), min_size=1, max_size=60),
        batch_bytes=st.sampled_from([1, 64, 1000, 1 << 20]),
    )
    def test_batch_granularity_never_changes_values(self, sizes, batch_bytes):
        bounds = boundaries_from_sizes(sizes)
        data = random_bytes(int(bounds[-1]), 7)
        reference = fingerprint_segments_fast(data, bounds)
        got = fingerprint_segments_fast(data, bounds, batch_bytes=batch_bytes)
        np.testing.assert_array_equal(got, reference)

    def test_cdc_segments(self):
        """Real chunker output: the production pairing."""
        data = random_bytes(500_000, seed=1)
        bounds = GearChunker(avg_size=4096).cut_boundaries(data)
        got = fingerprint_segments_fast(data, bounds)
        for i in (0, 1, len(got) // 2, len(got) - 1):
            seg = data[int(bounds[i]) : int(bounds[i + 1])]
            assert int(got[i]) == fingerprint64_fast(seg)

    def test_word_edge_sizes(self):
        """Sizes straddling the 8-byte word boundary (padding corners)."""
        for size in (1, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65):
            data = random_bytes(size, seed=size)
            got = fingerprint_segments_fast(data, [0, size])
            assert int(got[0]) == fingerprint64_fast(data)

    def test_tiny_segment_scatter_path(self):
        """Hundreds of 1-3 byte segments force the vectorized byte
        scatter (per-segment memcpy would dominate)."""
        sizes = ([1, 2, 3] * 200)[:500]
        bounds = boundaries_from_sizes(sizes)
        data = random_bytes(int(bounds[-1]), 2)
        got = fingerprint_segments_fast(data, bounds)
        for i in range(0, len(sizes), 97):
            seg = data[int(bounds[i]) : int(bounds[i + 1])]
            assert int(got[i]) == fingerprint64_fast(seg)

    def test_length_breaks_prefix_collisions(self):
        """A short chunk and its zero-padded extension must differ."""
        a = b"\x01\x02\x03"
        b = a + b"\x00" * 5  # same padded words, different length
        assert fingerprint64_fast(a) != fingerprint64_fast(b)

    def test_empty_segment_list(self):
        assert fingerprint_segments_fast(b"", [0]).size == 0
        assert fingerprint_segments_fast(b"", np.zeros(0, np.int64)).size == 0


class TestValidation:
    def test_rejects_non_increasing_boundaries(self):
        data = random_bytes(100)
        with pytest.raises(ValueError, match="strictly increasing"):
            fingerprint_segments_fast(data, [0, 50, 50, 100])
        with pytest.raises(ValueError, match="strictly increasing"):
            fingerprint_segments_fast(data, [0, 60, 40, 100])


class TestChunkerIntegration:
    def test_chunk_fingerprint_families(self):
        data = random_bytes(200_000, seed=3)
        chunker = GearChunker(avg_size=4096)
        blake = chunker.chunk(data)  # default family
        fast = chunker.chunk(data, fingerprints="fast")
        np.testing.assert_array_equal(blake.sizes, fast.sizes)
        # different families: same cuts, disjoint fingerprint values
        assert not np.array_equal(blake.fps, fast.fps)
        # fast family matches the scalar reference
        bounds = boundaries_from_sizes(fast.sizes)
        assert int(fast.fps[0]) == fingerprint64_fast(
            data[: int(bounds[1])]
        )
        # blake family still matches its own reference path
        np.testing.assert_array_equal(
            blake.fps, fingerprint_segments(data, bounds.tolist())
        )

    def test_chunk_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="fingerprint family"):
            GearChunker().chunk(b"abc", fingerprints="md5")

    def test_fast_family_is_deterministic_across_calls(self):
        data = random_bytes(50_000, seed=4)
        a = GearChunker().chunk(data, fingerprints="fast")
        b = GearChunker().chunk(data, fingerprints="fast")
        np.testing.assert_array_equal(a.fps, b.fps)
