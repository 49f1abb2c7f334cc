"""The uncharged batch probes and writes of the chunk index.

``peek_many``, ``upsert_many`` and ``lookup_batch_sorted`` replace
per-fingerprint loops on the RevDedup ingest and maintenance paths. Each
must equal its one-at-a-time form exactly, on the plain
``DiskChunkIndex`` and on ``ShardedChunkIndex`` with one shard and with
several: the same answers, the same counters, the same map and journal
order, and no disk charge.
"""

import dataclasses

import numpy as np
import pytest

from repro.index.full_index import ChunkLocation, DiskChunkIndex
from repro.sharding import ShardedChunkIndex
from repro.storage.disk import DiskModel

from tests.conftest import TEST_PROFILE

FACTORIES = {
    "plain": lambda journaled: DiskChunkIndex(
        DiskModel(profile=TEST_PROFILE),
        expected_entries=1000,
        page_cache_pages=4,
        journaled=journaled,
    ),
    "1-shard": lambda journaled: ShardedChunkIndex.create(
        DiskModel(profile=TEST_PROFILE),
        n_shards=1,
        expected_entries=1000,
        page_cache_pages=4,
        journaled=journaled,
    ),
    "3-shard": lambda journaled: ShardedChunkIndex.create(
        DiskModel(profile=TEST_PROFILE),
        n_shards=3,
        expected_entries=1000,
        page_cache_pages=4,
        journaled=journaled,
    ),
}


def populated(name, journaled=False):
    """An index holding the even fingerprints below 200 (odds absent),
    with some pages cached and everything flushed."""
    index = FACTORIES[name](journaled)
    for fp in range(0, 200, 2):
        index.insert(fp, ChunkLocation(fp % 7, fp % 5))
    index.lookup_many(list(range(0, 40, 3)))
    index.flush()
    return index


def state(index):
    """Everything an index call could change, per shard."""
    shards = getattr(index, "shards", [index])
    return (
        dataclasses.astuple(index.stats),
        [list(s._map.items()) for s in shards],
        [s._unflushed and list(s._unflushed.items()) for s in shards],
        [s._page_cache and list(s._page_cache._data.items()) for s in shards],
        dataclasses.astuple(index.disk.stats),
        index.disk.clock.now,
    )


PROBES = [5, 4, 4, 199, 0, 198, 7, 4, 1000, 2]


@pytest.mark.parametrize("name", sorted(FACTORIES))
class TestPeekMany:
    def test_equals_peek_per_fingerprint(self, name):
        index = populated(name)
        want = [index.peek(fp) for fp in PROBES]
        assert index.peek_many(PROBES) == want
        assert index.peek_many(np.array(PROBES, dtype=np.uint64)) == want
        assert index.peek_many([]) == []

    def test_charges_nothing(self, name):
        index = populated(name)
        before = state(index)
        index.peek_many(PROBES)
        assert state(index) == before


@pytest.mark.parametrize("journaled", [False, True])
@pytest.mark.parametrize("name", sorted(FACTORIES))
class TestUpsertMany:
    def test_equals_insert_or_update_per_pair(self, name, journaled):
        """Absent fingerprints are inserted once, then updated on their
        repeats; present ones are updated. Counts, map order and the
        journal's pre-write values match the sequential calls."""
        fps = [1, 4, 1, 3, 4, 301, 1, 6, 301]
        locs = [ChunkLocation(50 + i, 9) for i in range(len(fps))]
        batch = populated(name, journaled)
        batch.upsert_many(fps, locs)
        ladder = populated(name, journaled)
        for fp, loc in zip(fps, locs):
            if ladder.peek(fp) is None:
                ladder.insert(fp, loc)
            else:
                ladder.update(fp, loc)
        assert state(batch) == state(ladder)
        assert batch.stats.inserts - 100 == 3  # 1, 3, 301: once each

    def test_empty_run(self, name, journaled):
        index = populated(name, journaled)
        before = state(index)
        index.upsert_many([], [])
        assert state(index) == before


@pytest.mark.parametrize("name", sorted(FACTORIES))
class TestLookupBatchSorted:
    def test_answers_and_one_sweep_per_index_file(self, name):
        index = populated(name)
        stats = dataclasses.replace(index.stats)
        got = index.lookup_batch_sorted(PROBES)
        assert got == [index.peek(fp) for fp in PROBES]
        assert index.stats.lookups == stats.lookups + len(PROBES)
        assert index.stats.negative_lookups == stats.negative_lookups + got.count(None)
        assert index.stats.page_hits == stats.page_hits
        assert index.stats.page_faults == stats.page_faults
        assert 1 <= index.stats.sweeps - stats.sweeps <= getattr(index, "n_shards", 1)


def test_plain_sweep_is_one_scan_of_the_file():
    index = populated("plain")
    seeks = index.disk.stats.seeks
    index.lookup_batch_sorted(PROBES)
    assert index.stats.sweep_pages == index.n_pages
    assert index.disk.stats.seeks == seeks + 1
