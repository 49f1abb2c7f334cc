"""Byte-level workload generation: real buffers through real CDC.

The byte twins of the chunk-level generators must (a) materialize
payloads as a pure function of the model fingerprint (so all modeled
redundancy survives the round trip through bytes), (b) keep the
BackupJob / ChunkStream contract the engines consume, and (c) stay lazy
— one generation's buffer live at a time.
"""

import numpy as np
import pytest

from repro.chunking.gear import GearChunker
from repro.workloads.bytegen import (
    byte_backup,
    chunk_payload,
    default_byte_chunker,
    group_fs_bytes,
    single_user_byte_stream,
)
from repro.workloads.fs_model import FileSystemModel
from repro.workloads.generators import BackupJob

FS_BYTES = 256 * 1024
# small model chunks + a small CDC target keep these tests fast while
# still cutting hundreds of chunks per generation
FS_KW = dict(avg_chunk_bytes=1024, min_chunk_bytes=256, max_chunk_bytes=4096)


def small_chunker(seed: int = 2012) -> GearChunker:
    return GearChunker(avg_size=1024, seed=seed)


class TestChunkPayload:
    def test_length_and_determinism(self):
        fps = np.arange(10, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        sizes = np.asarray([1, 7, 8, 9, 100, 1024, 3, 64, 65, 17], dtype=np.int64)
        a = chunk_payload(fps, sizes)
        assert len(a) == int(sizes.sum())
        assert a == chunk_payload(fps, sizes)

    def test_payload_is_a_function_of_the_fingerprint(self):
        """Equal fps -> byte-identical payloads, wherever they appear."""
        fp = np.uint64(123456789)
        sizes = np.asarray([500, 500], dtype=np.int64)
        buf = chunk_payload(np.asarray([fp, fp]), sizes)
        assert buf[:500] == buf[500:]
        # the same fp in a different stream position gives the same bytes
        other = chunk_payload(
            np.asarray([np.uint64(7), fp]), np.asarray([300, 500])
        )
        assert other[300:] == buf[:500]

    def test_different_fps_differ(self):
        sizes = np.asarray([256], dtype=np.int64)
        a = chunk_payload(np.asarray([np.uint64(1)]), sizes)
        b = chunk_payload(np.asarray([np.uint64(2)]), sizes)
        assert a != b

    def test_word_edge_sizes(self):
        """Trimming at non-multiple-of-8 sizes keeps the word prefix."""
        fp = np.uint64(42)
        full = chunk_payload(np.asarray([fp]), np.asarray([64]))
        for size in (1, 7, 8, 9, 17, 63):
            part = chunk_payload(np.asarray([fp]), np.asarray([size]))
            assert part == full[:size]

    def test_empty_and_invalid(self):
        assert chunk_payload(np.zeros(0, np.uint64), np.zeros(0, np.int64)) == b""
        with pytest.raises(ValueError):
            chunk_payload(np.asarray([np.uint64(1)]), np.asarray([0]))

    def test_tiny_chunk_gather_path_matches_memcpy_path(self):
        """Many 1-3 byte chunks force the vectorized gather; values must
        match the per-chunk slice semantics."""
        fps = np.arange(1, 301, dtype=np.uint64)
        sizes = np.asarray([1, 2, 3] * 100, dtype=np.int64)
        buf = chunk_payload(fps, sizes)
        assert len(buf) == int(sizes.sum())
        for i in (0, 1, 2, 150, 299):
            start = int(sizes[:i].sum())
            expected = chunk_payload(fps[i : i + 1], sizes[i : i + 1])
            assert buf[start : start + int(sizes[i])] == expected


class TestByteBackup:
    def test_matches_model_stream_bytes(self):
        fs = FileSystemModel(seed=3, initial_bytes=FS_BYTES, **FS_KW)
        data = byte_backup(fs)
        assert len(data) == fs.full_backup().total_bytes

    def test_evolution_changes_bytes_but_preserves_most(self):
        fs = FileSystemModel(seed=3, initial_bytes=FS_BYTES, **FS_KW)
        before = byte_backup(fs)
        fs.evolve()
        after = byte_backup(fs)
        assert before != after
        # CDC over both recovers heavy redundancy despite shifts
        chunker = small_chunker()
        a = chunker.chunk(before, fingerprints="fast")
        b = chunker.chunk(after, fingerprints="fast")
        prev = set(a.fps.tolist())
        dup = sum(
            int(s) for f, s in zip(b.fps, b.sizes) if int(f) in prev
        )
        assert dup / b.total_bytes > 0.5


class TestSingleUserByteStream:
    def jobs(self, n=3, seed=1):
        return list(
            single_user_byte_stream(
                n, FS_BYTES, seed=seed, chunker=small_chunker(), **FS_KW
            )
        )

    def test_contract(self):
        jobs = self.jobs()
        assert [j.generation for j in jobs] == [0, 1, 2]
        for j in jobs:
            assert isinstance(j, BackupJob)
            assert j.label == "user0"
            assert len(j.stream) > 10
            assert j.stream.fps.dtype == np.uint64
            assert int(j.stream.sizes.min()) > 0

    def test_deterministic(self):
        a = self.jobs(seed=5)
        b = self.jobs(seed=5)
        assert all(x.stream == y.stream for x, y in zip(a, b))

    def test_inter_generation_redundancy_survives_cdc(self):
        jobs = self.jobs()
        prev = set(jobs[0].stream.fps.tolist())
        cur = jobs[1].stream
        dup = sum(int(s) for f, s in zip(cur.fps, cur.sizes) if int(f) in prev)
        assert dup / cur.total_bytes > 0.5

    def test_lazy_one_generation_at_a_time(self):
        gen = single_user_byte_stream(
            1000, FS_BYTES, seed=1, chunker=small_chunker(), **FS_KW
        )
        first = next(gen)  # materializes only generation 0
        assert first.generation == 0
        gen.close()

    def test_rejects_zero_generations(self):
        with pytest.raises(ValueError):
            list(single_user_byte_stream(0, FS_BYTES))


class TestGroupFsBytes:
    def jobs(self, n_backups=6, seed=1, n_users=3):
        return list(
            group_fs_bytes(
                per_user_bytes=FS_BYTES,
                seed=seed,
                n_users=n_users,
                n_backups=n_backups,
                chunker=small_chunker(),
                **FS_KW,
            )
        )

    def test_round_robin_labels(self):
        jobs = self.jobs()
        assert [j.label for j in jobs] == [
            "student0", "student1", "student2",
            "student0", "student1", "student2",
        ]
        assert [j.generation for j in jobs] == list(range(6))

    def test_deterministic(self):
        a = self.jobs(seed=9)
        b = self.jobs(seed=9)
        assert all(x.stream == y.stream for x, y in zip(a, b))

    def test_cross_user_shared_chunks(self):
        """The shared pool materializes to identical bytes for every
        user, so CDC recovers cross-user redundancy."""
        jobs = self.jobs(n_backups=3)
        u0 = set(jobs[0].stream.fps.tolist())
        u1 = set(jobs[1].stream.fps.tolist())
        assert u0 & u1

    def test_second_round_redundant_with_first(self):
        jobs = self.jobs(n_backups=6)
        prev = set(jobs[0].stream.fps.tolist())
        cur = jobs[3].stream  # student0's second backup
        dup = sum(int(s) for f, s in zip(cur.fps, cur.sizes) if int(f) in prev)
        assert dup / cur.total_bytes > 0.5

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            list(group_fs_bytes(per_user_bytes=0))
        with pytest.raises(ValueError):
            list(group_fs_bytes(per_user_bytes=FS_BYTES, n_users=0))


class TestDefaultChunker:
    def test_defaults(self):
        chunker = default_byte_chunker()
        assert isinstance(chunker, GearChunker)
        assert chunker.avg_size == 8 * 1024
        assert default_byte_chunker(avg_size=2048).avg_size == 2048
