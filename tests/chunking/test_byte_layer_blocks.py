"""The Gear cut's pair-table gather around block seams.

``GearChunker`` gathers each block's lanes two bytes at a time from an
even offset, with one scalar lookup for an odd last byte. The cuts and
the candidate count must equal the 64-lag oracle's, and the
fingerprints of the cut chunks the scalar fold reference. Blocks are
patched small so that short buffers really are cut into several blocks,
with odd block starts, odd lengths and blocks shorter than the
``b - 1``-byte carry.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chunking import gear
from repro.chunking.fingerprint import fingerprint_segments_fast
from repro.chunking.gear import GearChunker

from tests.oracle.fold_oracle import fingerprint64_fast
from tests.oracle.gear_oracle import cut_exact, rolling_hashes

#: mask widths under test: the default (uint16 lanes), the uint32 branch,
#: and a 2-bit mask whose hits (one byte in four) land on block seams
MASK_BITS = (2, 13, 17)


def random_bytes(n: int, seed: int = 0) -> bytes:
    return bytes(np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8))


def assert_matches_oracle(chunker: GearChunker, data: bytes, cuts) -> None:
    """Cuts as the oracle's, and the candidate count too: a hit found
    twice or lost at a block seam can hide behind the clamps."""
    np.testing.assert_array_equal(cuts, cut_exact(chunker, data))
    mask = np.uint64((1 << chunker._bits) - 1)
    hits = int(np.count_nonzero((rolling_hashes(chunker, data) & mask) == 0))
    assert chunker.last_stats == (len(data), cuts.size - 1, hits)


class TestBlockSeams:
    @settings(deadline=None, max_examples=60)
    @given(
        bits=st.sampled_from(MASK_BITS),
        block=st.integers(1, 97),
        blocks=st.integers(0, 9),
        delta=st.integers(-20, 20),
        data_seed=st.integers(0, 2**31 - 1),
    )
    def test_cuts_around_block_seams(self, bits, block, blocks, delta, data_seed):
        """Lengths ``k * _BLOCK +- delta`` with small (often odd) blocks:
        odd block starts, odd tails, and blocks shorter than the carry
        (``b - 1`` = 1, 12 or 16 bytes)."""
        n = max(0, blocks * block + delta)
        data = random_bytes(n, data_seed)
        chunker = GearChunker(avg_size=1 << bits, min_size=1)
        with mock.patch.object(gear, "_BLOCK", block):
            cuts = chunker.cut_boundaries(data)
        assert_matches_oracle(chunker, data, cuts)

    @settings(deadline=None, max_examples=40)
    @given(
        bits=st.sampled_from(MASK_BITS),
        data=st.binary(max_size=4000),
        block=st.integers(1, 64),
    )
    def test_cuts_on_structured_bytes(self, bits, data, block):
        chunker = GearChunker(avg_size=1 << bits, min_size=1)
        with mock.patch.object(gear, "_BLOCK", block):
            cuts = chunker.cut_boundaries(data)
        assert_matches_oracle(chunker, data, cuts)

    @pytest.mark.parametrize("bits", MASK_BITS)
    def test_full_blocks_and_fold(self, bits):
        """Unpatched blocks: a buffer of several real blocks plus an odd
        tail cuts as the oracle does and folds as the scalar reference."""
        data = random_bytes(5 * gear._BLOCK + 12_345, seed=bits)
        chunker = GearChunker(avg_size=1 << bits)
        cuts = chunker.cut_boundaries(data)
        fps = fingerprint_segments_fast(data, cuts)
        np.testing.assert_array_equal(cuts, cut_exact(chunker, data))
        for i in range(0, fps.size, max(1, fps.size // 50)):
            assert int(fps[i]) == fingerprint64_fast(data[cuts[i] : cuts[i + 1]])
