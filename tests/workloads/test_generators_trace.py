import itertools

import pytest

from repro._util import MIB
from repro.workloads.generators import (
    author_fs_20_full,
    author_fs_20_incremental,
    group_fs_66,
    single_user_incrementals,
    single_user_stream,
)


class TestSingleUserStream:
    def test_generation_numbering(self):
        jobs = list(single_user_stream(4, 2 * MIB, seed=1))
        assert [j.generation for j in jobs] == [0, 1, 2, 3]

    def test_full_backups_similar_size(self):
        jobs = list(single_user_stream(4, 2 * MIB, seed=1))
        sizes = [j.stream.total_bytes for j in jobs]
        assert max(sizes) < min(sizes) * 1.5

    def test_inter_generation_redundancy(self):
        jobs = list(single_user_stream(3, 2 * MIB, seed=1))
        prev = set(jobs[0].stream.fps.tolist())
        cur = jobs[1].stream
        dup = sum(int(s) for f, s in zip(cur.fps, cur.sizes) if int(f) in prev)
        assert dup / cur.total_bytes > 0.8

    def test_deterministic(self):
        a = [j.stream for j in single_user_stream(3, MIB, seed=5)]
        b = [j.stream for j in single_user_stream(3, MIB, seed=5)]
        assert all(x == y for x, y in zip(a, b))

    def test_rejects_zero_generations(self):
        with pytest.raises(ValueError):
            list(single_user_stream(0, MIB))


class TestIncrementals:
    def test_first_is_full(self):
        jobs = list(single_user_incrementals(3, 2 * MIB, seed=1))
        assert jobs[0].stream.total_bytes > 5 * jobs[1].stream.total_bytes

    def test_author_workloads_labels(self):
        full = next(iter(author_fs_20_full(fs_bytes=MIB, n_generations=1)))
        incr = next(iter(author_fs_20_incremental(fs_bytes=MIB, n_generations=1)))
        assert full.label == "author-fs"
        assert incr.label == "author-fs-incr"


class TestGroupWorkload:
    def test_round_robin_labels(self):
        jobs = list(itertools.islice(group_fs_66(per_user_bytes=MIB, n_backups=7), 7))
        assert [j.label for j in jobs] == [
            "student0", "student1", "student2", "student3", "student4",
            "student0", "student1",
        ]

    def test_users_share_pool_content(self):
        jobs = list(itertools.islice(
            group_fs_66(per_user_bytes=2 * MIB, n_backups=2, shared_frac=0.4), 2
        ))
        a = set(jobs[0].stream.fps.tolist())
        b = set(jobs[1].stream.fps.tolist())
        assert a & b

    def test_user_streams_evolve(self):
        jobs = list(itertools.islice(group_fs_66(per_user_bytes=MIB, n_backups=6), 6))
        u0_first, u0_second = jobs[0].stream, jobs[5].stream
        assert u0_first != u0_second
        shared = set(u0_first.fps.tolist()) & set(u0_second.fps.tolist())
        assert shared  # but highly redundant

