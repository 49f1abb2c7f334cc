"""Product ingest against the chunk-at-a-time segment-ladder oracle.

Each engine's segment-at-a-time ``_process_segment`` must be
*byte-identical* to its chunk-at-a-time decision ladder, kept in
``tests/oracle/segment_ladder.py`` — not just the same dedup outcomes,
but the same simulated clock (float addition order included), the same
stats down to every counter, the same recipes, and the same traced
metrics and events. These tests run each workload twice, once through
the product and once inside :func:`ladder_engines`, and compare
everything an engine can report; ``fig2`` and ``fig4`` (small scale)
are replayed through the ladders as whole figures.

Every ladder run asserts that the oracle's call counter advanced by the
number of segments ingested, so the suite fails if the ladder is not
installed. SparseIndex and Hybrid have one ingest path only and are not
compared here.
"""

import contextlib
import dataclasses
import difflib
import pathlib

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
from repro.dedup.revdedup import RevDedupEngine
from repro.dedup.silo import SiLoEngine
from repro.experiments.common import clear_memo
from repro.experiments.config import ExperimentConfig
from repro.experiments.suite import run_suite
from repro.segmenting.segmenter import ContentDefinedSegmenter
from repro.storage.gc import GarbageCollector
from repro.storage.store import StoreConfig
from repro.workloads.generators import BackupJob, single_user_incrementals

from tests.conftest import TEST_PROFILE
from tests.oracle import segment_ladder
from tests.oracle.segment_ladder import ladder_engines

GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "experiments" / "golden"


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
    "exact": lambda r: ExactEngine(r),
    "ddfs": lambda r: DDFSEngine(r, bloom_capacity=50_000, cache_containers=4),
    "silo": lambda r: SiLoEngine(
        r, block_bytes=64 * 1024, cache_blocks=4, similarity_capacity=32
    ),
    "defrag": lambda r: DeFragEngine(
        r, policy=SPLThresholdPolicy(0.1), bloom_capacity=50_000, cache_containers=4
    ),
    "idedup": lambda r: IDedupEngine(
        r, min_sequence=4, bloom_capacity=50_000, cache_containers=4
    ),
    "revdedup": lambda r: RevDedupEngine(r),
}


@contextlib.contextmanager
def ladder_run():
    """Run the block through the ladders. Yields a list the block extends
    with the reports it produced; on exit the ladders' call count must
    have advanced by exactly their segment total."""
    reports = []
    before = segment_ladder.calls
    with ladder_engines():
        yield reports
    n_segments = sum(len(r.segments) for r in reports)
    assert segment_ladder.calls - before == n_segments


def run_engine(factory, streams):
    """One engine over the stream sequence; its full-state fingerprint
    and its reports."""
    res = fresh_resources()
    engine = factory(res)
    gt = GroundTruth()
    reports = [
        run_backup(engine, BackupJob(g, "u", s), small_segmenter(), gt)
        for g, s in enumerate(streams)
    ]
    return state_fingerprint(res, reports, engine), reports


def run_twin(factory, streams):
    """Run the same stream sequence through the product and the ladder
    and return both full-state fingerprints."""
    product_print, _ = run_engine(factory, streams)
    with ladder_run() as ladder_reports:
        ladder_print, reports = run_engine(factory, streams)
        ladder_reports.extend(reports)
    return product_print, ladder_print


def engine_counters(engine):
    """Every engine-level stats counter product and ladder must agree
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
        product_print, ladder_print = run_twin(ENGINE_FACTORIES[name], streams)
        assert product_print == ladder_print

    @pytest.mark.parametrize("name", sorted(ENGINE_FACTORIES))
    def test_generational_workload_identical(self, name):
        """A multi-generation churned workload (drives prefetching, cache
        evictions, bloom growth, rewrites — every mid-segment event the
        product must replay at exact chunk positions)."""
        jobs = single_user_incrementals(4, 256 * 1024, seed=7)
        streams = [j.stream for j in jobs]
        product_print, ladder_print = run_twin(ENGINE_FACTORIES[name], streams)
        assert product_print == ladder_print


#: ladder engines with a prefetch cache small enough that every recency
#: refresh decides a later eviction, and one-section prefetches, so an
#: index hit can land between two hits on a unit it leaves cached
TIGHT_CACHE_FACTORIES = {
    "ddfs": lambda r: DDFSEngine(
        r, bloom_capacity=50_000, cache_containers=3, prefetch_ahead=1
    ),
    "defrag": lambda r: DeFragEngine(
        r,
        policy=SPLThresholdPolicy(0.1),
        bloom_capacity=50_000,
        cache_containers=3,
        prefetch_ahead=1,
    ),
    "idedup": lambda r: IDedupEngine(
        r, min_sequence=4, bloom_capacity=50_000, cache_containers=3, prefetch_ahead=1
    ),
}


class TestTightCacheEquivalence:
    @pytest.mark.parametrize("name", sorted(TIGHT_CACHE_FACTORIES))
    @given(streams=st.lists(stream_strategy, min_size=3, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_random_streams_identical(self, name, streams):
        product_print, ladder_print = run_twin(TIGHT_CACHE_FACTORIES[name], streams)
        assert product_print == ladder_print


class TestEquivalenceUnderTracing:
    """Observability must not perturb the twin-run contract: with a
    session on (metrics + event tracing), product and ladder still
    agree on every report, counter, and clock — and on the recorded
    metric snapshots and event streams themselves."""

    def _run_traced(self, name, streams):
        from repro.obs import ListEventSink, Observability, obs_session

        sink = ListEventSink()
        with obs_session(Observability(events=sink)) as obs:
            fingerprint, reports = run_engine(ENGINE_FACTORIES[name], streams)
        return fingerprint, obs.registry.snapshot(), sink.events, reports

    @pytest.mark.parametrize("name", sorted(ENGINE_FACTORIES))
    def test_traced_twins_identical(self, name):
        jobs = single_user_incrementals(3, 128 * 1024, seed=11)
        streams = [j.stream for j in jobs]
        product = self._run_traced(name, streams)
        with ladder_run() as ladder_reports:
            ladder = self._run_traced(name, streams)
            ladder_reports.extend(ladder[3])
        assert product[0] == ladder[0]  # reports, clocks, counters
        assert product[1] == ladder[1]  # metric snapshots
        assert product[2] == ladder[2]  # event streams

    @pytest.mark.parametrize("name", sorted(ENGINE_FACTORIES))
    def test_tracing_changes_nothing_observable(self, name):
        """The same run traced and untraced produces the identical
        fingerprint: observability is read-only on the simulation."""
        jobs = single_user_incrementals(3, 128 * 1024, seed=11)
        streams = [j.stream for j in jobs]
        traced_fp, _, _, _ = self._run_traced(name, streams)
        untraced_fp, _ = run_engine(ENGINE_FACTORIES[name], streams)
        assert untraced_fp == traced_fp


# -- RevDedup over its whole lifecycle -----------------------------------


@dataclasses.dataclass(frozen=True)
class RevDedupPlan:
    """Backups built from a small pool of fingerprint blocks, so whole
    segments recur within a backup and across backups, plus the
    lifecycle around them."""

    blocks: tuple  # each a tuple of fingerprints, repeats allowed
    backups: tuple  # each a tuple of block indices
    gc_after: tuple  # per backup: run an external GC pass after it
    retain: int  # recipes kept restorable (0: every copy is garbage)
    maintain: bool  # end_generation after every backup
    spill: bool  # two resident containers, the rest spilled
    journal: bool


@st.composite
def revdedup_plans(draw):
    blocks = draw(
        st.lists(
            st.lists(st.integers(0, 200), min_size=1, max_size=40).map(tuple),
            min_size=1,
            max_size=5,
        )
    )
    n = len(blocks)
    backups = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), max_size=8).map(tuple),
            min_size=1,
            max_size=4,
        )
    )
    return RevDedupPlan(
        blocks=tuple(blocks),
        backups=tuple(backups),
        gc_after=tuple(draw(st.lists(st.booleans(), min_size=len(backups), max_size=len(backups)))),
        retain=draw(st.integers(0, 3)),
        maintain=draw(st.booleans()),
        spill=draw(st.booleans()),
        journal=draw(st.booleans()),
    )


def plan_streams(plan):
    return [
        ChunkStream.from_pairs(
            [(fp, 256 + (fp * 37) % 3840) for b in backup for fp in plan.blocks[b]]
        )
        for backup in plan.backups
    ]


def classify(engine, segment):
    """How the coarse dedup must treat ``segment`` (read before it is
    processed): new, a hit on the previous or the current backup, or a
    candidate demoted to the write path because a copy sits in the open
    container or was collected."""
    key = (tuple(segment.fps.tolist()), tuple(segment.sizes.tolist()))
    if key in engine._cur_segs:
        kind = "current"
    elif key in engine._prev_segs:
        kind = "previous"
    else:
        return "new"
    store = engine.res.store
    cids = [engine.res.index.peek(fp).cid for fp in key[0]]
    if all(map(store.has, cids)):
        return "hit-" + kind
    open_ = store.open_container
    if open_ is not None and open_.cid in cids:
        return "demoted-open"
    return "demoted-collected"


def run_revdedup(plan, kinds=None):
    """The plan through RevDedup: everything observable from the run,
    and its backup reports. ``kinds`` (a list) collects
    :func:`classify` for every segment."""
    res = EngineResources.create(
        profile=TEST_PROFILE,
        expected_entries=50_000,
        index_page_cache_pages=4,
        store_config=StoreConfig(
            container_bytes=64 * 1024,
            seal_seeks=0,
            journal=plan.journal,
            resident_containers=2 if plan.spill else None,
        ),
    )
    engine = RevDedupEngine(res)
    if kinds is not None:
        process = engine.process_segment

        def classified(segment):
            kinds.append(classify(engine, segment))
            return process(segment)

        engine.process_segment = classified
    segmenter = small_segmenter()
    gt = GroundTruth()
    reports, passes, recipes = [], [], []
    for g, stream in enumerate(plan_streams(plan)):
        reports.append(run_backup(engine, BackupJob(g, "u", stream), segmenter, gt))
        recipes = (recipes + [reports[-1].recipe])[-plan.retain :] if plan.retain else []
        if plan.maintain:
            report, recipes = engine.end_generation(recipes)
            passes.append(report)
        if plan.gc_after[g]:
            gc = GarbageCollector(res.store, res.index)
            report, recipes = gc.collect(recipes, min_utilization=0.5)
            passes.append(report)
    store = res.store
    state = state_fingerprint(res, reports, engine) + [
        passes,
        [(r.fingerprints.tobytes(), r.sizes.tobytes(), r.containers.tobytes()) for r in recipes],
        list(res.index._map.items()),
        res.index._unflushed and list(res.index._unflushed.items()),
        [(cid, store.get(cid).fingerprints.tobytes()) for cid in store.cids()],
        list(store._resident),
        dataclasses.astuple(store.spill_stats),
        store.journal_records(),
        list(engine._gen_written.items()),
        list(engine._pending_redirect.items()),
        res.disk.clock.now,
    ]
    return state, reports


#: three backups of blocks A, B, A (B repeats fingerprints inside its
#: segments); the second A of each backup hits the first (some of whose
#: copies still sit in the open container), every backup hits the one
#: before, and an external GC after the second backup, with nothing
#: retained, collects the copies the third one would hit
COVERING_PLAN = RevDedupPlan(
    blocks=(tuple(range(40)), (107, 108, 107, 109) * 5),
    backups=((0, 1, 0),) * 3,
    gc_after=(False, True, False),
    retain=0,
    maintain=True,
    spill=True,
    journal=True,
)


def revdedup_twin(plan, run=run_revdedup):
    """``run(plan)`` through the product and through the ladder."""
    product, _ = run(plan)
    with ladder_run() as ladder_reports:
        ladder, reports = run(plan)
        ladder_reports.extend(reports)
    return product, ladder


class TestRevDedupEquivalence:
    """RevDedup's segment-at-a-time path against its ladder across the
    whole lifecycle: segment hits on the previous and the current
    backup, fingerprints repeated inside a segment, hits demoted because
    a copy still sits in the open container or was collected by an
    external GC, and maintenance after every backup over a spilling,
    journaled store."""

    @given(plan=revdedup_plans())
    @settings(max_examples=120, deadline=None)
    def test_random_lifecycles_identical(self, plan):
        product, ladder = revdedup_twin(plan)
        assert product == ladder

    def test_fixed_lifecycle_covers_every_path(self):
        """One fixed plan that reaches every branch of the coarse dedup
        (so the comparison above cannot pass by missing one)."""
        kinds = []
        run_revdedup(COVERING_PLAN, kinds)
        assert {
            "new",
            "hit-previous",
            "hit-current",
            "demoted-open",
            "demoted-collected",
        } <= set(kinds)
        product, ladder = revdedup_twin(COVERING_PLAN)
        assert product == ladder

    def test_traced_lifecycle_identical(self):
        """Under an obs session: the same metric snapshots and events."""
        from repro.obs import ListEventSink, Observability, obs_session

        def traced(plan):
            sink = ListEventSink()
            with obs_session(Observability(events=sink)) as obs:
                state, reports = run_revdedup(plan)
            return (state, obs.registry.snapshot(), sink.events), reports

        product, ladder = revdedup_twin(COVERING_PLAN, traced)
        assert product[0] == ladder[0]  # reports, clocks, counters, state
        assert product[1] == ladder[1]  # metric snapshots
        assert product[2] == ladder[2]  # event streams


def _run_figure(name, config, ladder):
    """One figure's table, run serially in-process from a clean memo. The
    group-workload memo is keyed on the config, not on the ingest path,
    so it is cleared before and after every run: a ladder run must never
    be served the product's results (or leave its own behind)."""
    clear_memo()
    try:
        if not ladder:
            results, errors = run_suite([name], config, jobs=1)
        else:
            before = segment_ladder.calls
            with ladder_engines():
                results, errors = run_suite([name], config, jobs=1)
            assert segment_ladder.calls > before, "the ladder never ran"
    finally:
        clear_memo()
    assert not errors, errors
    return results[name].table() + "\n"


class TestFigureTwins:
    """Whole figures replayed through the ladders: the in-process form of
    ``diff <(repro figN) <(repro figN through the ladder)``."""

    def test_fig4_small_ladder_matches_golden(self):
        golden_path = GOLDEN_DIR / "fig4_small.txt"
        expected = golden_path.read_text()
        actual = _run_figure("fig4", ExperimentConfig.small(), ladder=True)
        assert actual == expected, "\n".join(
            difflib.unified_diff(
                expected.splitlines(),
                actual.splitlines(),
                fromfile=str(golden_path),
                tofile="fig4 (ladder)",
                lineterm="",
            )
        )

    def test_fig2_ladder_matches_product(self):
        config = ExperimentConfig.small()
        product = _run_figure("fig2", config, ladder=False)
        assert _run_figure("fig2", config, ladder=True) == product


class TestLadderInstallation:
    def test_product_restored_after_block(self):
        """Leaving ``ladder_engines`` — normally or by an exception —
        puts every product ``_process_segment`` back; otherwise later
        tests would compare the ladder with itself."""
        product = {cls: cls.__dict__["_process_segment"] for cls in segment_ladder.LADDERS}
        with ladder_engines():
            for cls in product:
                assert cls.__dict__["_process_segment"] is not product[cls]
        with pytest.raises(RuntimeError):
            with ladder_engines():
                raise RuntimeError
        for cls, method in product.items():
            assert cls.__dict__["_process_segment"] is method


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
