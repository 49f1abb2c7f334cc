"""ShardedChunkIndex behind the DiskChunkIndex contract.

Pins the three contract planks of ``repro.sharding.index``: 1-shard
byte-identity (answers, stats, simulated clock), N-shard answer
equivalence, and the single live stats object all shards share. Plus
the mechanics: the routed ``_map`` view, ensemble ``page_of``/
``n_pages``, and the journaled flush/crash/load_recovered cycle. And
one wall-clock floor on routed ``lookup_many``, since no benchmark
workload runs a multi-shard index.
"""

import time

import numpy as np

from repro.index.full_index import ChunkLocation, DiskChunkIndex
from repro.sharding import ShardedChunkIndex
from repro.storage.disk import DiskModel

from tests.conftest import TEST_PROFILE


def make_sharded(n_shards, **kwargs):
    disk = DiskModel(profile=TEST_PROFILE)
    kwargs.setdefault("expected_entries", 10_000)
    return ShardedChunkIndex.create(disk, n_shards=n_shards, **kwargs)


def drive(index):
    """A deterministic mixed workload; returns (answers, stats, clock)."""
    rng = np.random.default_rng(7)
    fps = [int(x) for x in rng.integers(1, 1 << 60, size=1024)]
    answers = []
    for i in range(0, len(fps), 128):
        chunk = fps[i : i + 128]
        answers.append([loc is not None for loc in index.lookup_many(chunk)])
        index.insert_many(
            chunk, [ChunkLocation(i, j) for j in range(len(chunk))]
        )
        index.flush()
    answers.append(
        [loc.cid for loc in index.lookup_many(fps) if loc is not None]
    )
    return answers, dict(vars(index.stats)), index.disk.stats.total_time_s


class TestOneShardDegeneracy:
    def test_byte_identical_to_plain_index(self):
        plain = drive(
            DiskChunkIndex(
                DiskModel(profile=TEST_PROFILE), expected_entries=10_000
            )
        )
        one = drive(make_sharded(1))
        assert plain == one

    def test_one_shard_exposes_the_real_map(self):
        index = make_sharded(1)
        assert index._map is index.shards[0]._map


class TestAnswerEquivalence:
    def test_n_shards_answer_equivalent(self):
        ref_answers, _, _ = drive(make_sharded(1))
        for n_shards in (2, 3, 5):
            answers, _, _ = drive(make_sharded(n_shards))
            assert answers == ref_answers

    def test_sorted_sweep_matches_routed_lookup(self):
        index = make_sharded(3)
        fps = [fp * 131 for fp in range(1, 400)]
        index.insert_many(
            fps, [ChunkLocation(fp % 9, 0) for fp in fps]
        )
        probes = fps[::2] + [10**15 + fp for fp in range(50)]
        assert index.lookup_batch_sorted(probes) == index.lookup_many(probes)

    def test_update_many_routes_to_owners(self):
        index = make_sharded(4)
        fps = list(range(100, 200))
        index.insert_many(fps, [ChunkLocation(0, 0) for _ in fps])
        index.update_many(fps, [ChunkLocation(fp, 1) for fp in fps])
        for fp in fps:
            assert index.peek(fp) == ChunkLocation(fp, 1)


class TestSharedStats:
    def test_all_shards_share_one_live_stats_object(self):
        index = make_sharded(4)
        for shard in index.shards:
            assert shard.stats is index.stats
        fps = list(range(1, 301))
        index.insert_many(fps, [ChunkLocation(0, 0) for _ in fps])
        index.lookup_many(fps)
        assert index.stats.inserts == 300
        assert index.stats.lookups == 300


class TestMapViewAndPages:
    def test_routed_map_view_matches_peek(self):
        index = make_sharded(3)
        fps = [fp * 271 for fp in range(1, 200)]
        index.insert_many(fps, [ChunkLocation(fp, 2) for fp in fps])
        for fp in fps:
            assert index._map.get(fp) == index.peek(fp)
            assert fp in index._map
        assert index._map.get(10**16) is None
        assert len(index._map) == len(fps)
        assert dict(index._map.items()) == {
            fp: ChunkLocation(fp, 2) for fp in fps
        }

    def test_page_of_is_a_stable_ensemble_page_id(self):
        index = make_sharded(3)
        assert index.n_pages == sum(s.n_pages for s in index.shards)
        for fp in range(1, 500, 17):
            page = index.page_of(fp)
            assert 0 <= page < index.n_pages
            assert page == index.page_of(fp)

    def test_shard_fill_and_len_agree(self):
        index = make_sharded(4)
        fps = list(range(1, 401))
        index.insert_many(fps, [ChunkLocation(0, 0) for _ in fps])
        assert sum(index.shard_fill()) == len(index) == 400
        assert index.disk_bytes == sum(s.disk_bytes for s in index.shards)


class TestCrashCycle:
    def test_crash_drops_unflushed_load_recovered_repartitions(self):
        index = make_sharded(3, journaled=True)
        index.insert_many(
            list(range(1, 51)), [ChunkLocation(0, 0) for _ in range(50)]
        )
        index.flush()
        index.insert_many(
            list(range(51, 101)), [ChunkLocation(1, 0) for _ in range(50)]
        )
        index.crash()
        assert len(index) == 50
        rebuilt = {fp: ChunkLocation(9, 9) for fp in range(200, 260)}
        assert index.load_recovered(rebuilt) == 60
        for fp in rebuilt:
            owner = index.router.shard_of(fp)
            assert fp in index.shards[owner]._map


class TestRoutedThroughput:
    #: routed lookup_many resolutions per wall-clock second: an absolute
    #: floor, an order of magnitude under what a 2-vCPU machine measures,
    #: that a per-fingerprint Python routing loop would fall through
    FLOOR_PER_S = 50_000.0

    def test_four_shard_lookup_many_clears_the_floor(self):
        n_entries, batch = 50_000, 4096
        index = make_sharded(4, expected_entries=n_entries)
        rng = np.random.default_rng(2012)
        load = [int(x) for x in rng.integers(1, 1 << 60, size=n_entries)]
        for i in range(0, n_entries, batch):
            chunk = load[i : i + batch]
            index.insert_many(
                chunk, [ChunkLocation(0, j) for j in range(len(chunk))]
            )
        index.flush()
        # half hits, half misses
        probes = load[: n_entries // 2] + [
            int(x) for x in rng.integers(1 << 61, 1 << 62, size=n_entries // 2)
        ]
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            hits = 0
            for i in range(0, len(probes), batch):
                for loc in index.lookup_many(probes[i : i + batch]):
                    if loc is not None:
                        hits += 1
            best = min(best, time.perf_counter() - t0)
            assert hits == n_entries // 2
        rate = len(probes) / best
        assert rate >= self.FLOOR_PER_S, (
            f"routed lookup throughput {rate:.0f}/s is below the "
            f"{self.FLOOR_PER_S:.0f}/s floor"
        )
