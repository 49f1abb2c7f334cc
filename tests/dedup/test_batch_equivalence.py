"""Batch-vs-scalar ingest equivalence.

The vectorized batch ingest path (``batch=True``, the default) must be
*byte-identical* to the chunk-at-a-time reference ladder — not just the
same dedup outcomes, but the same simulated clock (float addition order
included), the same stats down to every counter, and the same recipes.
These tests run the same workload through twin engines that differ only
in the ``batch`` flag and compare everything an engine can report.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chunking.base import ChunkStream
from repro.core.defrag import DeFragEngine
from repro.core.policy import SPLThresholdPolicy
from repro.dedup.base import EngineResources
from repro.dedup.ddfs import DDFSEngine
from repro.dedup.exact import ExactEngine
from repro.dedup.idedup import IDedupEngine
from repro.dedup.pipeline import GroundTruth, run_backup
from repro.dedup.silo import SiLoEngine
from repro.dedup.sparse import SparseIndexEngine
from repro.segmenting.segmenter import ContentDefinedSegmenter
from repro.workloads.generators import BackupJob, single_user_incrementals

from tests.conftest import TEST_PROFILE


def small_segmenter():
    return ContentDefinedSegmenter(
        min_bytes=4096, avg_bytes=8192, max_bytes=16384, avg_chunk_bytes=1024
    )


def fresh_resources():
    res = EngineResources.create(
        profile=TEST_PROFILE,
        container_bytes=64 * 1024,
        expected_entries=50_000,
        index_page_cache_pages=4,
    )
    res.store.seal_seeks = 0
    return res


ENGINE_FACTORIES = {
    "exact": lambda r, b: ExactEngine(r, batch=b),
    "ddfs": lambda r, b: DDFSEngine(r, bloom_capacity=50_000, cache_containers=4, batch=b),
    "silo": lambda r, b: SiLoEngine(
        r, block_bytes=64 * 1024, cache_blocks=4, similarity_capacity=32, batch=b
    ),
    "defrag": lambda r, b: DeFragEngine(
        r,
        policy=SPLThresholdPolicy(0.1),
        bloom_capacity=50_000,
        cache_containers=4,
        batch=b,
    ),
    "idedup": lambda r, b: IDedupEngine(
        r, min_sequence=4, bloom_capacity=50_000, cache_containers=4, batch=b
    ),
    "sparse": lambda r, b: SparseIndexEngine(r, cache_manifests=4, batch=b),
}


def run_twin(name, streams):
    """Run the same stream sequence through batch and scalar twins and
    return both full-state fingerprints."""
    prints = []
    for batch in (True, False):
        res = fresh_resources()
        engine = ENGINE_FACTORIES[name](res, batch)
        gt = GroundTruth()
        reports = [
            run_backup(engine, BackupJob(g, "u", s), small_segmenter(), gt)
            for g, s in enumerate(streams)
        ]
        prints.append(state_fingerprint(res, reports, engine))
    return prints


def engine_counters(engine):
    """Every engine-level stats counter the two ingest paths must agree
    on: prefetch-cache hit/miss/eviction accounting and LRU order, bloom
    insert count and bits,
    similarity-index stats, rewrite totals, manifest loads."""
    out = {}
    cache = getattr(engine, "cache", None)
    if cache is not None:
        out["cache"] = dataclasses.astuple(cache.stats)
        # the cached units in LRU order: a recency refresh one path
        # skips shows here even when no later eviction depends on it
        out["cache_lru"] = tuple(cache._units)
    bloom = getattr(engine, "bloom", None)
    if bloom is not None:
        out["bloom_added"] = bloom.n_added
        out["bloom_words"] = bloom._words.tobytes()
    similarity = getattr(engine, "similarity", None)
    if similarity is not None:
        out["similarity"] = dataclasses.astuple(similarity.stats)
    for attr in ("total_rewritten_bytes", "total_rewritten_chunks", "manifest_loads"):
        if hasattr(engine, attr):
            out[attr] = getattr(engine, attr)
    return tuple(sorted(out.items()))


def state_fingerprint(res, reports, engine=None):
    """Everything observable from a run, hashable for equality."""
    out = []
    for r in reports:
        out.append(
            (
                r.generation,
                r.label,
                r.n_chunks,
                r.logical_bytes,
                r.written_new_bytes,
                r.removed_dup_bytes,
                r.rewritten_dup_bytes,
                r.elapsed_seconds,  # simulated clock: float-exact
                r.true_dup_bytes,
                tuple(r.seg_true_dup_bytes or ()),
                tuple(r.seg_fully_dup or ()),
                tuple(sorted(r.extras.items())),
                r.recipe.fingerprints.tobytes(),
                r.recipe.sizes.tobytes(),
                r.recipe.containers.tobytes(),
            )
        )
    out.append(dataclasses.astuple(res.disk.stats))
    out.append(dataclasses.astuple(res.index.stats))
    out.append(dataclasses.astuple(res.store.stats))
    if engine is not None:
        out.append(engine_counters(engine))
    return out


# small fp alphabet forces duplicates; sizes deterministic per fp
stream_strategy = st.lists(
    st.integers(min_value=0, max_value=60), min_size=0, max_size=150
).map(lambda fps: ChunkStream.from_pairs([(fp, 256 + (fp * 37) % 3840) for fp in fps]))


@st.composite
def stream_pairs(draw):
    return draw(stream_strategy), draw(stream_strategy)


class TestBatchScalarEquivalence:
    @pytest.mark.parametrize("name", sorted(ENGINE_FACTORIES))
    @given(streams=stream_pairs())
    @settings(max_examples=15, deadline=None)
    def test_random_streams_identical(self, name, streams):
        batch_print, scalar_print = run_twin(name, streams)
        assert batch_print == scalar_print

    @pytest.mark.parametrize("name", sorted(ENGINE_FACTORIES))
    def test_generational_workload_identical(self, name):
        """A multi-generation churned workload (drives prefetching, cache
        evictions, bloom growth, rewrites — every mid-segment event the
        batch path must replay at exact chunk positions)."""
        jobs = single_user_incrementals(4, 256 * 1024, seed=7)
        streams = [j.stream for j in jobs]
        batch_print, scalar_print = run_twin(name, streams)
        assert batch_print == scalar_print


#: ladder engines with a prefetch cache small enough that every recency
#: refresh decides a later eviction, and one-section prefetches, so an
#: index hit can land between two hits on a unit it leaves cached
TIGHT_CACHE_FACTORIES = {
    "ddfs": lambda r, b: DDFSEngine(
        r, bloom_capacity=50_000, cache_containers=3, prefetch_ahead=1, batch=b
    ),
    "defrag": lambda r, b: DeFragEngine(
        r,
        policy=SPLThresholdPolicy(0.1),
        bloom_capacity=50_000,
        cache_containers=3,
        prefetch_ahead=1,
        batch=b,
    ),
    "idedup": lambda r, b: IDedupEngine(
        r,
        min_sequence=4,
        bloom_capacity=50_000,
        cache_containers=3,
        prefetch_ahead=1,
        batch=b,
    ),
}


class TestTightCacheEquivalence:
    @pytest.mark.parametrize("name", sorted(TIGHT_CACHE_FACTORIES))
    @given(streams=st.lists(stream_strategy, min_size=3, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_random_streams_identical(self, name, streams):
        prints = []
        for batch in (True, False):
            res = fresh_resources()
            engine = TIGHT_CACHE_FACTORIES[name](res, batch)
            gt = GroundTruth()
            reports = [
                run_backup(engine, BackupJob(g, "u", s), small_segmenter(), gt)
                for g, s in enumerate(streams)
            ]
            prints.append(state_fingerprint(res, reports, engine))
        assert prints[0] == prints[1]


class TestEquivalenceUnderTracing:
    """Observability must not perturb the twin-run contract: with a
    session on (metrics + event tracing), batch and scalar twins still
    agree on every report, counter, and clock — and on the recorded
    metric snapshots and event streams themselves."""

    def _run_traced(self, name, streams, batch):
        from repro.obs import ListEventSink, Observability, obs_session

        res = fresh_resources()
        sink = ListEventSink()
        with obs_session(Observability(events=sink)) as obs:
            engine = ENGINE_FACTORIES[name](res, batch)
            gt = GroundTruth()
            reports = [
                run_backup(engine, BackupJob(g, "u", s), small_segmenter(), gt)
                for g, s in enumerate(streams)
            ]
        fingerprint = state_fingerprint(res, reports, engine)
        return fingerprint, obs.registry.snapshot(), sink.events

    @pytest.mark.parametrize("name", sorted(ENGINE_FACTORIES))
    def test_traced_twins_identical(self, name):
        jobs = single_user_incrementals(3, 128 * 1024, seed=11)
        streams = [j.stream for j in jobs]
        batch_run = self._run_traced(name, streams, True)
        scalar_run = self._run_traced(name, streams, False)
        assert batch_run[0] == scalar_run[0]  # reports, clocks, counters
        assert batch_run[1] == scalar_run[1]  # metric snapshots
        assert batch_run[2] == scalar_run[2]  # event streams

    @pytest.mark.parametrize("name", sorted(ENGINE_FACTORIES))
    def test_tracing_changes_nothing_observable(self, name):
        """The same run traced and untraced produces the identical
        fingerprint: observability is read-only on the simulation."""
        jobs = single_user_incrementals(3, 128 * 1024, seed=11)
        streams = [j.stream for j in jobs]
        traced_fp, _, _ = self._run_traced(name, streams, True)

        res = fresh_resources()
        engine = ENGINE_FACTORIES[name](res, True)
        gt = GroundTruth()
        reports = [
            run_backup(engine, BackupJob(g, "u", s), small_segmenter(), gt)
            for g, s in enumerate(streams)
        ]
        assert state_fingerprint(res, reports, engine) == traced_fp


class TestIndexBatchAccounting:
    """``lookup_many`` must charge exactly what N sequential ``lookup``
    calls charge: same page-fault sequence, same simulated clock, same
    counters (negative lookups included)."""

    def _twin_indexes(self):
        pair = []
        for _ in range(2):
            res = fresh_resources()
            index = res.index
            from repro.index.full_index import ChunkLocation

            for fp in range(0, 400, 2):  # evens present, odds absent
                index.insert(fp, ChunkLocation(fp % 17, fp % 5))
            pair.append(res)
        return pair

    def test_lookup_many_matches_sequential_lookups(self):
        res_a, res_b = self._twin_indexes()
        rng = np.random.default_rng(42)
        fps = rng.integers(0, 400, size=300).tolist()

        got_many = res_a.index.lookup_many(fps)
        got_seq = [res_b.index.lookup(fp) for fp in fps]

        assert got_many == got_seq
        assert dataclasses.astuple(res_a.index.stats) == dataclasses.astuple(
            res_b.index.stats
        )
        assert dataclasses.astuple(res_a.disk.stats) == dataclasses.astuple(
            res_b.disk.stats
        )
        assert res_a.disk.clock.now == res_b.disk.clock.now

    def test_negative_lookup_counter(self):
        res, _ = self._twin_indexes()
        index = res.index
        before = index.stats.negative_lookups
        assert index.lookup(1) is None  # odd: absent
        assert index.lookup(2) is not None
        assert index.lookup(3) is None
        assert index.stats.negative_lookups == before + 2
        # the batch path counts the same misses
        index.lookup_many([5, 2, 7])
        assert index.stats.negative_lookups == before + 4
