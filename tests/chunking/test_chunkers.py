import numpy as np
import pytest

from repro.chunking.fixed import FixedChunker
from repro.chunking.gear import GearChunker

from tests.oracle.gear_oracle import rolling_hashes


def random_bytes(n: int, seed: int = 0) -> bytes:
    return bytes(np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8))


def check_boundaries(boundaries, n):
    b = list(boundaries)
    assert b[0] == 0
    assert b[-1] == n
    assert all(b[i] < b[i + 1] for i in range(len(b) - 1))


class TestFixedChunker:
    def test_exact_division(self):
        c = FixedChunker(chunk_size=100)
        b = c.cut_boundaries(bytes(400))
        assert b.tolist() == [0, 100, 200, 300, 400]

    def test_trailing_short_chunk(self):
        c = FixedChunker(chunk_size=100)
        b = c.cut_boundaries(bytes(250))
        assert b.tolist() == [0, 100, 200, 250]

    def test_empty_input(self):
        c = FixedChunker()
        assert c.cut_boundaries(b"").tolist() == [0]
        assert len(c.chunk(b"")) == 0

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            FixedChunker(chunk_size=0)

    def test_shift_intolerance(self):
        """The known weakness: one inserted byte re-aligns everything."""
        data = random_bytes(10000)
        c = FixedChunker(chunk_size=512)
        a = set(c.chunk(data).fps.tolist())
        b = set(c.chunk(b"\x00" + data).fps.tolist())
        assert len(a & b) / len(a) < 0.2


@pytest.mark.parametrize("chunker_cls", [GearChunker])
class TestContentDefinedChunkers:
    def test_boundaries_wellformed(self, chunker_cls):
        data = random_bytes(20000)
        c = chunker_cls(avg_size=512)
        check_boundaries(c.cut_boundaries(data), len(data))

    def test_deterministic(self, chunker_cls):
        data = random_bytes(10000)
        c1 = chunker_cls(avg_size=512)
        c2 = chunker_cls(avg_size=512)
        assert c1.cut_boundaries(data).tolist() == c2.cut_boundaries(data).tolist()

    def test_respects_min_max(self, chunker_cls):
        data = random_bytes(50000, seed=3)
        c = chunker_cls(avg_size=512, min_size=128, max_size=2048)
        sizes = np.diff(c.cut_boundaries(data))
        # all but the final chunk obey the min; all obey the max
        assert (sizes[:-1] >= 128).all()
        assert (sizes <= 2048).all()

    def test_average_in_ballpark(self, chunker_cls):
        data = random_bytes(200000, seed=5)
        c = chunker_cls(avg_size=1024)
        sizes = np.diff(c.cut_boundaries(data))
        assert 512 < sizes.mean() < 2300

    def test_shift_tolerance(self, chunker_cls):
        """Insert 16 bytes mid-stream: most chunks must survive."""
        data = random_bytes(60000, seed=9)
        c = chunker_cls(avg_size=512)
        a = set(c.chunk(data).fps.tolist())
        mutated = data[:30000] + random_bytes(16, seed=10) + data[30000:]
        b = set(c.chunk(mutated).fps.tolist())
        assert len(a & b) / len(a) > 0.85

    def test_reassembly_preserves_length(self, chunker_cls):
        data = random_bytes(33333, seed=11)
        cs = chunker_cls(avg_size=1024).chunk(data)
        assert cs.total_bytes == len(data)

    def test_empty_input(self, chunker_cls):
        c = chunker_cls(avg_size=512)
        assert c.cut_boundaries(b"").tolist() == [0]

    def test_single_byte(self, chunker_cls):
        c = chunker_cls(avg_size=512)
        assert c.cut_boundaries(b"A").tolist() == [0, 1]

    def test_rejects_bad_ordering(self, chunker_cls):
        with pytest.raises(ValueError):
            chunker_cls(avg_size=512, min_size=600)


class TestGearSpecifics:
    def test_rolling_hash_window_locality(self):
        """Gear hash at position i depends only on the trailing 64 bytes."""
        g = GearChunker(avg_size=512)
        a = random_bytes(500, seed=1)
        b = random_bytes(500, seed=2)
        suffix = random_bytes(200, seed=3)
        ha = rolling_hashes(g, a + suffix)
        hb = rolling_hashes(g, b + suffix)
        # positions >= 64 bytes into the shared suffix agree
        assert np.array_equal(ha[500 + 64 :], hb[500 + 64 :])

    def test_different_seeds_cut_differently(self):
        data = random_bytes(30000, seed=4)
        a = GearChunker(avg_size=512, seed=1).cut_boundaries(data)
        b = GearChunker(avg_size=512, seed=2).cut_boundaries(data)
        assert a.tolist() != b.tolist()

    def test_max_cut_on_incompressible_run(self):
        """All-zero data never fires a content boundary reliably; max_size
        must bound every chunk."""
        g = GearChunker(avg_size=512, min_size=128, max_size=1024)
        sizes = np.diff(g.cut_boundaries(bytes(20000)))
        assert (sizes <= 1024).all()

