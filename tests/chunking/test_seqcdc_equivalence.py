"""The narrow-lane Gear path against the 64-lag oracle, cut for cut.

``GearChunker`` evaluates only the low ``b = log2(avg)`` hash bits, in
uint16 lanes for ``b <= 16`` and uint32 lanes above, block by block with
a ``b - 1``-byte carry. ``tests/oracle/gear_oracle.py`` evaluates the
full uint64 rolling hash at every byte. Every property here requires the
two to cut identically: across mask widths (both lane types), min/max
clamps, arbitrary bytes, and buffer lengths around block seams. The
shared :func:`select_cuts` clamp is checked against a naive scalar walk,
and the ``chunking.*`` accounting against the oracle's candidates.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._util import rng_from
from repro.chunking import gear
from repro.chunking.gear import GearChunker
from repro.chunking.select import select_cuts
from repro.obs import obs_session

from tests.oracle.gear_oracle import cut_exact, rolling_hashes

#: mask widths under test: uint16 lanes (8, 13 = the default, 16 = a
#: full lane) and the uint32 branch (17)
MASK_BITS = (8, 13, 16, 17)


def random_bytes(n: int, seed: int = 0) -> bytes:
    return bytes(np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8))


def chunking_fixture(nbytes: int, seed: int = 2012) -> bytes:
    """The seeded random buffer the chunking measurements used."""
    rng = rng_from(seed, "bench-chunking")
    return rng.integers(0, 256, size=int(nbytes), dtype="uint8").tobytes()


def assert_matches_oracle(chunker: GearChunker, data: bytes) -> None:
    np.testing.assert_array_equal(
        chunker.cut_boundaries(data), cut_exact(chunker, data)
    )


class TestTwinRun:
    """product == oracle, cut for cut."""

    @settings(deadline=None, max_examples=40)
    @given(
        n=st.integers(0, 40_000),
        data_seed=st.integers(0, 2**31 - 1),
        avg=st.sampled_from([256, 1024, 4096]),
    )
    def test_random_buffers(self, n, data_seed, avg):
        assert_matches_oracle(
            GearChunker(avg_size=avg, seed=7), random_bytes(n, data_seed)
        )

    @settings(deadline=None, max_examples=60)
    @given(data=st.binary(max_size=20_000), bits=st.sampled_from(MASK_BITS))
    def test_arbitrary_bytes(self, data, bits):
        """Structured/repetitive inputs (hypothesis loves runs of one
        byte) exercise the degenerate-hash corners random data misses;
        a small min_size keeps the wide masks cutting."""
        assert_matches_oracle(GearChunker(avg_size=1 << bits, min_size=16), data)

    @settings(deadline=None, max_examples=25)
    @given(
        data_seed=st.integers(0, 1000),
        min_frac=st.sampled_from([1, 2, 4, 64]),
        max_frac=st.sampled_from([1, 2, 4]),
    )
    def test_nondefault_clamps(self, data_seed, min_frac, max_frac):
        """min/avg/max ratios other than the 1/4 .. 4x defaults."""
        avg = 1024
        chunker = GearChunker(
            avg_size=avg, min_size=avg // min_frac, max_size=avg * max_frac
        )
        assert_matches_oracle(chunker, random_bytes(12_000, data_seed))

    @settings(deadline=None, max_examples=30)
    @given(
        bits=st.sampled_from(MASK_BITS),
        n=st.integers(1, 300_000),
        data_seed=st.integers(0, 2**31 - 1),
        seed=st.integers(0, 2**16),
    )
    def test_mask_widths(self, bits, n, data_seed, seed):
        """Both lane widths, with the tightest clamps so every masked
        hit past one byte becomes a cut."""
        chunker = GearChunker(
            avg_size=1 << bits, min_size=1, max_size=1 << (bits + 2), seed=seed
        )
        assert_matches_oracle(chunker, random_bytes(n, data_seed))


class TestBlockSeams:
    """Each block re-reads the ``b - 1`` bytes before it; cuts must not
    depend on where the seams fall."""

    @settings(deadline=None, max_examples=30)
    @given(
        bits=st.sampled_from(MASK_BITS),
        blocks=st.integers(1, 2),
        delta=st.integers(-17, 17),
        data_seed=st.integers(0, 2**31 - 1),
    )
    def test_lengths_around_block_seams(self, bits, blocks, delta, data_seed):
        """Buffers of ``k * _BLOCK +- b`` bytes: the last block is either
        just the carry plus a few bytes or a few bytes short of full."""
        n = blocks * gear._BLOCK + delta
        chunker = GearChunker(avg_size=1 << bits, min_size=1)
        assert_matches_oracle(chunker, random_bytes(n, data_seed))

    @settings(deadline=None, max_examples=40)
    @given(
        bits=st.sampled_from(MASK_BITS),
        block=st.integers(1, 64),
        data=st.binary(max_size=3000)
        | st.builds(random_bytes, st.integers(0, 20_000), st.integers(0, 2**31 - 1)),
    )
    def test_tiny_blocks(self, bits, block, data):
        """Blocks as short as the carry put a seam next to nearly every
        byte, on random and on structured data."""
        chunker = GearChunker(avg_size=1 << bits, min_size=1)
        with mock.patch.object(gear, "_BLOCK", block):
            assert_matches_oracle(chunker, data)

    def test_chunking_fixture_slice(self):
        """The seeded fixture's first MiB cuts exactly where the oracle
        does at the default 8 KiB average (four full blocks)."""
        data = chunking_fixture(1024 * 1024)
        chunker = GearChunker()
        cuts = chunker.cut_boundaries(data)
        assert cuts.size > 100  # sanity: real chunking happened
        np.testing.assert_array_equal(cuts, cut_exact(chunker, data))


class TestSelectCuts:
    """The shared vectorized clamp against a naive scalar walk."""

    @staticmethod
    def naive(candidates, n, min_size, max_size):
        cuts = [0]
        last = 0
        cand = [int(c) for c in candidates]
        while last < n:
            limit = last + max_size
            cut = next(
                (c for c in cand if last + min_size <= c < limit), None
            )
            if cut is None:
                cut = min(limit, n)
            if cut >= n:
                cut = n
            cuts.append(cut)
            last = cut
        return cuts

    @settings(deadline=None, max_examples=150)
    @given(
        n=st.integers(0, 5000),
        min_size=st.integers(1, 400),
        extra=st.integers(0, 2000),
        cand=st.sets(st.integers(1, 5000), max_size=200),
    )
    def test_matches_naive_walk(self, n, min_size, extra, cand):
        max_size = min_size + extra
        candidates = np.asarray(
            sorted(c for c in cand if c <= n), dtype=np.int64
        )
        got = select_cuts(candidates, n, min_size, max_size)
        assert got.tolist() == self.naive(candidates, n, min_size, max_size)

    def test_empty_input(self):
        assert select_cuts(np.zeros(0, np.int64), 0, 10, 40).tolist() == [0]

    def test_no_candidates_forces_max(self):
        got = select_cuts(np.zeros(0, np.int64), 250, 10, 100)
        assert got.tolist() == [0, 100, 200, 250]


class TestEdgeCases:
    def test_empty_input(self):
        chunker = GearChunker()
        assert chunker.cut_boundaries(b"").tolist() == [0]
        assert chunker.last_stats == (0, 0, 0)

    def test_input_shorter_than_min_size(self):
        data = random_bytes(100)
        chunker = GearChunker(avg_size=1024)
        assert chunker.cut_boundaries(data).tolist() == [0, 100]
        assert chunker.last_stats.chunks_out == 1

    def test_zero_candidates_means_forced_max_cuts(self):
        """A constant buffer whose steady-state hash misses the mask has
        no content cuts at all: every boundary is a forced max cut."""
        n = 20_000
        chunker = GearChunker(avg_size=1024, seed=2012)
        for b in range(256):
            data = bytes([b]) * n
            cuts = chunker.cut_boundaries(data)
            if chunker.last_stats.candidates == 0:
                break
        else:  # pragma: no cover - (1023/1024)^256 chance per seed
            pytest.skip("every constant byte fires the mask for this seed")
        np.testing.assert_array_equal(cuts, cut_exact(chunker, data))
        assert cuts.tolist() == list(range(0, n, 4096)) + [n]

    def test_degenerate_min_avg_max_equal(self):
        """min == avg == max degenerates to fixed-size chunking."""
        data = random_bytes(5000, seed=9)
        chunker = GearChunker(avg_size=512, min_size=512, max_size=512)
        cuts = chunker.cut_boundaries(data)
        np.testing.assert_array_equal(cuts, cut_exact(chunker, data))
        assert cuts.tolist() == list(range(0, 5000, 512)) + [5000]

    def test_rejects_bad_clamps(self):
        with pytest.raises(ValueError):
            GearChunker(avg_size=1024, min_size=2048)
        with pytest.raises(ValueError):
            GearChunker(avg_size=1024, max_size=512)

    def test_rejects_masks_wider_than_32_bits(self):
        GearChunker(avg_size=1 << 32)  # b = 32: the widest uint32 lane
        with pytest.raises(ValueError, match="32"):
            GearChunker(avg_size=1 << 33)


class TestScanStats:
    @settings(deadline=None, max_examples=25)
    @given(
        n=st.integers(0, 60_000),
        data_seed=st.integers(0, 500),
        bits=st.sampled_from(MASK_BITS),
    )
    def test_stats_match_oracle(self, n, data_seed, bits):
        """candidates counts every masked hit over the whole buffer."""
        data = random_bytes(n, data_seed)
        chunker = GearChunker(avg_size=1 << bits, min_size=1)
        cuts = chunker.cut_boundaries(data)
        mask = np.uint64((1 << bits) - 1)
        hits = int(np.count_nonzero((rolling_hashes(chunker, data) & mask) == 0))
        assert chunker.last_stats == (n, cuts.size - 1, hits)


class TestObsTwinRun:
    def test_recording_never_changes_cuts(self):
        data = random_bytes(300_000, seed=11)
        plain = GearChunker(avg_size=2048).cut_boundaries(data)
        with obs_session() as obs:
            chunker = GearChunker(avg_size=2048)
            recorded = chunker.cut_boundaries(data)
        np.testing.assert_array_equal(plain, recorded)
        snap = obs.registry.snapshot()
        counters = snap["counters"]
        assert counters["chunking.bytes_in"] == len(data)
        assert counters["chunking.chunks_out"] == plain.size - 1
        assert counters["chunking.candidates"] == chunker.last_stats.candidates
        span = snap["spans"]["chunking.phase.cut"]
        assert span["count"] == 1
        assert span["sim_seconds"] > 0

    def test_disabled_session_records_nothing(self):
        chunker = GearChunker(avg_size=2048)
        chunker.cut_boundaries(random_bytes(10_000))
        # no ambient session: the only trace is last_stats
        assert chunker.last_stats is not None
