"""Hybrid inline/out-of-line deduplication (arXiv 1405.5661).

The CUHK design splits dedup across the backup window boundary. Inline,
the engine consults **RAM only**: a bounded LRU fingerprint cache (plus
the current stream's own writes). Cache hits are removed by reference;
everything else — including true duplicates the cache has forgotten —
is appended sequentially, so ingest never touches the on-disk index and
runs at near-DeFrag speed. Out of line, the maintenance pass settles
the bill: every chunk written since the last pass gets its *charged*
exact index lookup; chunks that turn out to be duplicates are repointed
at the canonical old copy (through the GC redirect machinery, journaled
two-phase), their freshly written bytes reclaimed by compaction, and
genuinely new chunks are batch-inserted into the index.

The frontier experiment reads this as: exact-grade dedup ratio at
cache-only inline cost, paid for with deferred maintenance seconds —
the intermediate point between DDFS (all work inline) and RevDedup
(no fine-grained dedup at all).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import register_engine
from repro.dedup.base import (
    CostModel,
    DedupEngine,
    EngineResources,
    MaintenanceReport,
    SegmentOutcome,
)
from repro.index.full_index import ChunkLocation
from repro.segmenting.segmenter import Segment
from repro.storage.gc import GarbageCollector
from repro.storage.recipe import BackupRecipe


class HybridEngine(DedupEngine):
    """Cache-only inline dedup + deferred exact out-of-line pass."""

    def __init__(
        self,
        resources: EngineResources,
        cost: Optional[CostModel] = None,
        obs=None,
        cache_chunks: int = 16384,
        maintenance_min_utilization: float = 0.5,
    ) -> None:
        super().__init__(resources, cost, obs=obs)
        if cache_chunks <= 0:
            raise ValueError("cache_chunks must be positive")
        self.cache_chunks = int(cache_chunks)
        self.maintenance_min_utilization = float(maintenance_min_utilization)
        #: bounded inline fingerprint cache: fp -> cid, LRU evicted
        self._fp_cache: "OrderedDict[int, int]" = OrderedDict()
        #: current stream's own writes (never evicted mid-backup)
        self._stream_new: Dict[int, int] = {}
        #: chunks written since the last maintenance pass, in write
        #: order — the deferred exact-dedup work queue
        self._pending: List[Tuple[int, int, int]] = []
        self._cache_hits = 0
        self._cache_misses = 0

    def _on_begin_backup(self) -> None:
        self._stream_new = {}
        self._cache_hits = 0
        self._cache_misses = 0

    def _collect_extras(self) -> Dict[str, float]:
        probes = self._cache_hits + self._cache_misses
        return {
            "inline_cache_hits": float(self._cache_hits),
            "inline_hit_ratio": self._cache_hits / probes if probes else 0.0,
            "deferred_chunks": float(len(self._pending)),
        }

    def _cache_put(self, fp: int, cid: int) -> None:
        cache = self._fp_cache
        if fp in cache:
            cache.move_to_end(fp)
            cache[fp] = cid
            return
        cache[fp] = cid
        if len(cache) > self.cache_chunks:
            cache.popitem(last=False)

    def _process_segment(self, segment: Segment) -> SegmentOutcome:
        outcome = SegmentOutcome(
            index=segment.index, n_chunks=segment.n_chunks, nbytes=segment.nbytes
        )
        assert self._recipe is not None
        recipe = self._recipe
        cache = self._fp_cache
        stream = self._stream_new
        pending = self._pending
        store = self.res.store
        store_has = store.has
        store_append = store.append
        for fp, size in zip(segment.fps, segment.sizes):
            fp = int(fp)
            size = int(size)
            cid = stream.get(fp)
            if cid is None:
                cid = cache.get(fp)
                if cid is not None:
                    if store_has(cid):
                        cache.move_to_end(fp)
                    else:
                        # a compaction pass the engine never drove (an
                        # external GC) removed the container; drop the
                        # stale entry and treat the chunk as a miss
                        del cache[fp]
                        cid = None
            if cid is not None:
                self._cache_hits += 1
                outcome.removed_dup += size
                recipe.add(fp, size, cid)
                continue
            # RAM miss: no index consultation inline — write it through
            # and let the out-of-line pass decide whether it was new
            self._cache_misses += 1
            cid = store_append(fp, size)
            stream[fp] = cid
            pending.append((fp, size, cid))
            self._cache_put(fp, cid)
            outcome.written_new += size
            recipe.add(fp, size, cid)
        return outcome

    # -- out-of-line maintenance ------------------------------------------

    def maintenance(
        self, retained: Sequence[BackupRecipe]
    ) -> Tuple[Optional[MaintenanceReport], List[BackupRecipe]]:
        """Deferred exact dedup: one charged index probe per chunk
        written since the last pass, redirect duplicates to canonical
        old copies, compact the reclaimed space, batch-insert the rest."""
        pending = self._pending
        if not pending:
            return None, list(retained)
        self._pending = []
        disk = self.res.disk
        index = self.res.index
        t0 = disk.clock.now
        d0 = disk.stats.snapshot()

        # one authoritative probe per distinct fingerprint, resolved as
        # a single sorted-merge sweep of the on-disk index — the batched
        # access pattern that makes deferring exact dedup out of line
        # cheaper than paying page faults chunk-at-a-time inline
        unique: List[int] = []
        seen: Dict[int, int] = {}
        for fp, _size, _cid in pending:
            if fp not in seen:
                seen[fp] = -1
                unique.append(fp)
        for fp, loc in zip(unique, index.lookup_batch_sorted(unique)):
            if loc is not None:
                seen[fp] = loc.cid

        redirect: Dict[int, int] = {}
        new_fps: List[int] = []
        new_locs: List[ChunkLocation] = []
        for fp, _size, cid in pending:
            canonical = seen[fp]
            if canonical < 0:
                # genuinely new: this copy becomes canonical
                seen[fp] = cid
                new_fps.append(fp)
                new_locs.append(ChunkLocation(cid, -1))
            elif canonical != cid:
                redirect[fp] = canonical
        if new_fps:
            index.insert_many(new_fps, new_locs)

        gc = GarbageCollector(self.res.store, index)
        gc_report, remapped = gc.collect(
            retained,
            min_utilization=self.maintenance_min_utilization,
            redirect=redirect,
        )

        # compaction may have moved copies the inline cache still points
        # at; re-resolve every cached location from the index (RAM peeks)
        store_has = self.res.store.has
        for fp in list(self._fp_cache):
            loc = index.peek(fp)
            if loc is not None and store_has(loc.cid):
                self._fp_cache[fp] = loc.cid
            else:
                del self._fp_cache[fp]

        report = MaintenanceReport(
            generation=self._generation,
            engine=self.name,
            elapsed_seconds=disk.clock.now - t0,
            containers_rewritten=gc_report.containers_collected,
            bytes_moved=gc_report.bytes_moved,
            bytes_reclaimed=gc_report.bytes_reclaimed,
            redirected_chunks=gc_report.redirected_chunks,
            index_lookups=len(unique),
            disk_delta=disk.stats.delta_since(d0),
        )
        return report, remapped


@register_engine(
    "Hybrid",
    supports_maintenance=True,
    doc="RAM-cache-only inline dedup; an out-of-line pass runs the "
    "charged exact index probes and reclaims deferred duplicates",
)
def _build_hybrid(resources, config) -> "HybridEngine":
    """repro.api factory: CUHK-style hybrid inline/out-of-line dedup."""
    return HybridEngine(
        resources,
        cache_chunks=config.hybrid_cache_chunks,
        maintenance_min_utilization=config.maintenance_min_utilization,
    )
