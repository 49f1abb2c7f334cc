"""DDFS-like engine (Zhu et al., FAST'08).

Per-chunk decision ladder, each rung cheaper than the next:

1. **Prefetch cache** (RAM) — fingerprint covered by a previously
   prefetched container's metadata: duplicate, zero disk cost.
2. **Current-stream buffer** (RAM) — fingerprint written earlier in this
   very backup (new fingerprints are buffered before the batched index
   merge, as DDFS does): duplicate against the in-flight copy.
3. **Summary vector** (bloom, RAM) — not present: definitely new, write
   it; no disk touched.
4. **On-disk index** — bloom said maybe: one bucket page fault (unless
   the page cache holds it). Hit ⇒ duplicate; *prefetch the whole
   metadata section of the container that holds it* (one more seek +
   transfer) betting on duplicate locality. Miss ⇒ bloom false positive,
   write as new.

The throughput decay of Fig. 2 is emergent: as stored placement
de-linearizes across generations, each prefetched container covers fewer
upcoming duplicates, so rung 4 — the expensive one — fires more often
per MB.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.api import register_engine
from repro._util import check_positive
from repro.dedup.base import CostModel, DedupEngine, EngineResources, SegmentOutcome
from repro.index.bloom import BloomFilter
from repro.index.cache import FingerprintPrefetchCache
from repro.index.full_index import ChunkLocation
from repro.segmenting.segmenter import Segment


class DDFSEngine(DedupEngine):
    """Exact deduplication with bloom + locality-preserved caching.

    Args:
        resources: shared disk/store/index substrate.
        cost: CPU cost model.
        bloom_capacity: summary-vector sizing (total unique chunks
            expected over the experiment's lifetime).
        bloom_fp_rate: summary-vector false-positive rate.
        cache_containers: prefetch-cache capacity, in container metadata
            sections (DDFS-scale default: 256 sections ≈ 1 GiB of
            payload coverage).
        prefetch_ahead: container metadata sections fetched per index hit.
            The container log is physically sequential ("stream-informed
            segment layout"), so one positioning streams the hit
            container's metadata plus the next ``prefetch_ahead - 1``
            sections — the read-ahead real DDFS relies on. 1 disables it.
    """

    def __init__(
        self,
        resources: EngineResources,
        cost: Optional[CostModel] = None,
        *,
        bloom_capacity: int = 4_000_000,
        bloom_fp_rate: float = 0.01,
        cache_containers: int = 256,
        prefetch_ahead: int = 4,
        obs=None,
    ) -> None:
        super().__init__(resources, cost, obs=obs)
        check_positive("cache_containers", cache_containers)
        check_positive("prefetch_ahead", prefetch_ahead)
        self.prefetch_ahead = int(prefetch_ahead)
        self.bloom = BloomFilter(bloom_capacity, bloom_fp_rate)
        self.cache = FingerprintPrefetchCache(cache_containers)
        # fingerprints written during the current backup, buffered in RAM
        # ahead of the batched index merge: fp -> (cid, sid)
        self._stream_new: Dict[int, ChunkLocation] = {}
        self._next_sid = 0
        self._cache_t0 = (0, 0)
        self._index_t0 = (0, 0)

    # ------------------------------------------------------------------

    def _on_begin_backup(self) -> None:
        self._stream_new = {}
        self._cache_t0 = (self.cache.stats.hits, self.cache.stats.units_inserted)
        self._index_t0 = (self.res.index.stats.lookups, self.res.index.stats.page_faults)

    def _collect_extras(self) -> dict:
        hits0, units0 = self._cache_t0
        lookups0, faults0 = self._index_t0
        hits = self.cache.stats.hits - hits0
        units = self.cache.stats.units_inserted - units0
        return {
            "cache_hits": float(hits),
            "prefetches": float(units),
            # the direct duplicate-locality observable: RAM hits bought
            # per container-metadata prefetch (decays as placement
            # de-linearizes — the paper's Fig. 2 mechanism)
            "hits_per_prefetch": hits / units if units else float(hits),
            "index_lookups": float(self.res.index.stats.lookups - lookups0),
            "index_faults": float(self.res.index.stats.page_faults - faults0),
        }

    def _allocate_sid(self) -> int:
        sid = self._next_sid
        self._next_sid += 1
        return sid

    def _prefetch_containers(self, cid: int) -> None:
        """Locality prefetch with sequential read-ahead: one positioning,
        then the metadata sections of ``cid`` and its physical successors
        stream in order."""
        store = self.res.store
        run = [c for c in range(cid, cid + self.prefetch_ahead) if store.has(c)]
        if not run:
            return
        # one seek for the run, sequential transfer for every section;
        # the cache inserts land after the charges in one batch (nothing
        # reads the cache in between)
        units = []
        first = True
        for c in run:
            sealed = store.get(c)
            self.res.read(sealed.metadata_bytes, seeks=1 if first else 0)
            store.stats.meta_prefetches += 1
            first = False
            units.append((c, sealed.fingerprints))
        self.cache.insert_units(units)

    def _process_segment(self, segment: Segment) -> SegmentOutcome:
        """Segment-at-a-time ingest: the module docstring's decision
        ladder, with the per-chunk vector work batched.

        Bloom probe positions are hashed once for the whole segment
        (:meth:`BloomFilter.begin_batch`) and prefetch-cache membership is
        resolved for a whole run of chunks per :meth:`lookup_many` call. A
        run ends at the only event that can change a later chunk's cache
        answer — an on-disk index hit, whose locality prefetch inserts
        (and may evict) cached units — at which point membership is
        re-resolved for the remaining suffix. All stateful side effects
        (writes, index faults, prefetch charges, recency refreshes)
        happen at the same chunk position as in the chunk-at-a-time
        ladder (``tests/oracle/segment_ladder.py``), so reports and the
        simulated clock are byte-identical to it.
        """
        n = segment.n_chunks
        outcome = SegmentOutcome(index=segment.index, n_chunks=n, nbytes=segment.nbytes)
        assert self._recipe is not None
        sid = self._allocate_sid()
        fps_arr = segment.fps
        fps = fps_arr.tolist()
        sizes = segment.sizes.tolist()
        bloom_batch = self.bloom.begin_batch(fps_arr)
        bloom_contains = bloom_batch.contains
        bloom_add = bloom_batch.add
        # hoisted fast path of bloom_contains: snapshot answer, falling
        # into the full check only when pending or staged inserts could
        # flip it (both containers are mutated in place, never rebound)
        bloom_m0 = bloom_batch._m0
        bloom_pending = bloom_batch._pending
        bloom_staged = bloom_batch._staged

        cache = self.cache
        touch = cache.touch_unit
        index = self.res.index
        peek = index._map.get  # bound peek fast path; fps already ints
        index_lookup = index.lookup
        index_insert = index.insert
        store_append = self.res.store.append
        store_append_run = self.res.store.append_run
        stream = self._stream_new
        stream_get = stream.get

        # all-new run candidates: a chunk that is its fingerprint's first
        # occurrence in the segment, absent from the stream buffer at
        # segment start, and summary-vector negative can only resolve one
        # way — written as new. (A later occurrence, or a stream-buffered
        # fp, hits rung 2; a bloom positive goes to rung 4; and the
        # stream buffer only grows with fps written *in* this segment, so
        # the segment-start snapshot stays authoritative for first
        # occurrences.) Maximal cache-missing runs of candidates are
        # written in one batch below.
        first_occ = np.zeros(n, dtype=bool)
        first_occ[np.unique(fps_arr, return_index=True)[1]] = True
        cand = first_occ & bloom_batch.negatives()
        if stream:
            cand &= ~np.fromiter(map(stream.__contains__, fps), dtype=bool, count=n)
        index_insert_many = index.insert_many

        cids = [0] * n
        written = removed = hits = 0
        i = 0
        while i < n:
            uids_arr = cache.lookup_many(fps if i == 0 else fps[i:])
            uids = uids_arr.tolist()
            # relative positions where the cache misses: each maximal run
            # of hits in between touches no mutable state besides LRU
            # recency, so it is resolved as one slice (see below)
            miss_rel = np.flatnonzero(uids_arr < 0)
            run_ok = (uids_arr < 0) & cand[i:]
            run_stops = np.flatnonzero(~run_ok)
            base = i
            while i < n:
                fp = fps[i]
                uid = uids[i - base]
                if uid >= 0:
                    # rung 1: prefetch cache — take the whole hit run
                    # [i, j): hits only read the cache and the index map,
                    # so nothing inside the run can change a later
                    # chunk's answer
                    r = i - base
                    k = int(np.searchsorted(miss_rel, r))
                    e = int(miss_rel[k]) if k < miss_rel.size else n - base
                    j = base + e
                    # LRU refresh with consecutive duplicates collapsed:
                    # re-moving the already-most-recent unit is a no-op,
                    # so the collapsed sequence leaves the identical order
                    last = -1
                    for u in uids[r:e]:
                        if u != last:
                            touch(u)
                            last = u
                    hits += j - i
                    removed += sum(sizes[i:j])
                    cids[i:j] = [
                        loc.cid if (loc := peek(f)) is not None else u
                        for f, u in zip(fps[i:j], uids[r:e])
                    ]
                    i = j
                    continue
                r = i - base
                if run_ok[r]:
                    # maximal cache-missing run of all-new candidates:
                    # written in one batch (identical packing, seal
                    # charges, index/stream/bloom state) if try_stage can
                    # prove no same-batch probe collision flips a later
                    # chunk's bloom answer; per-chunk fallback otherwise
                    t = int(np.searchsorted(run_stops, r))
                    j = base + (int(run_stops[t]) if t < run_stops.size else n - base)
                    if j - i >= 8 and bloom_batch.try_stage(i, j):
                        run_fps = fps[i:j]
                        run_sizes = sizes[i:j]
                        cids_run = store_append_run(run_fps, run_sizes)
                        locs = [ChunkLocation(c, sid) for c in cids_run]
                        index_insert_many(run_fps, locs)
                        stream.update(zip(run_fps, locs))
                        cids[i:j] = cids_run
                        written += sum(run_sizes)
                        i = j
                        continue
                loc = stream_get(fp)
                if loc is not None:
                    # rung 2: current-stream buffer
                    cids[i] = loc.cid
                    removed += sizes[i]
                    i += 1
                    continue
                if bloom_m0[i] or ((bloom_pending or bloom_staged) and bloom_contains(i)):
                    # rung 4: on-disk index
                    loc = index_lookup(fp)
                    if loc is not None:
                        cids[i] = loc.cid
                        removed += sizes[i]
                        i += 1
                        # locality prefetch mutates the cache: re-resolve
                        # membership for the rest of the segment
                        self._prefetch_containers(loc.cid)
                        break
                # rung 3 said definitely-new, or rung 4 missed (bloom FP)
                size = sizes[i]
                cid = store_append(fp, size)
                loc = ChunkLocation(cid, sid)
                index_insert(fp, loc)
                stream[fp] = loc
                bloom_add(i)
                cids[i] = cid
                written += size
                i += 1
        bloom_batch.flush()
        cache.count_hits(hits)
        cache.count_probes(n)
        outcome.written_new = written
        outcome.removed_dup = removed
        self._recipe.add_many(fps, sizes, cids)
        return outcome

    def _identify(
        self, segment: Segment, positions: Optional[np.ndarray] = None
    ) -> List[Optional[ChunkLocation]]:
        """Pure identification: the decision ladder's stored location
        (or None) for every chunk, with the vector work batched. No chunk is
        written during identification, so the summary vector is static
        and one membership probe answers rung 3 for the whole segment
        (from ``positions``, the segment's :meth:`BloomFilter.positions`,
        when the caller already hashed it); cache membership is
        re-resolved per locality-prefetch event exactly as in
        :meth:`_process_segment`. Used by the selective engines
        (DeFrag, iDedup) whose phase 1 runs before any placement.

        A segment is a few dozen chunks, so the walk itself is plain
        Python: per-chunk work is a dict probe or two, cheaper than the
        numpy calls it would take to vectorize it."""
        n = segment.n_chunks
        fps = segment.fps.tolist()
        bloom = self.bloom
        if positions is None:
            m0 = bloom.contains_many(segment.fps).tolist()
        else:
            m0 = bloom.contains_positions(positions).tolist()
        cache = self.cache
        lookup_list = cache.lookup_list
        touch = cache.touch_unit
        index = self.res.index
        peek = index._map.get  # bound peek fast path; fps already ints
        index_lookup = index.lookup
        stream_get = self._stream_new.get
        locations: List[Optional[ChunkLocation]] = [None] * n
        hits = 0
        i = 0
        while i < n:
            # nothing but a locality prefetch mutates the cache, so one
            # lookup answers every chunk up to the next prefetch, and
            # consecutive recency refreshes of one unit collapse (re-moving
            # the most recent unit is a no-op)
            last = -1
            for uid in lookup_list(fps[i:] if i else fps):
                fp = fps[i]
                i += 1
                if uid >= 0:
                    # rung 1: prefetch cache
                    if uid != last:
                        touch(uid)
                        last = uid
                    hits += 1
                    loc = peek(fp)
                    locations[i - 1] = loc if loc is not None else ChunkLocation(uid, -1)
                    continue
                loc = stream_get(fp)
                if loc is not None:
                    # rung 2: current-stream buffer
                    locations[i - 1] = loc
                    continue
                if not m0[i - 1]:
                    continue  # rung 3: definitely new
                # rung 4: on-disk index; a miss is a summary-vector false
                # positive, a hit prefetches and ends this lookup
                loc = index_lookup(fp)
                if loc is not None:
                    locations[i - 1] = loc
                    self._prefetch_containers(loc.cid)
                    break
        cache.count_hits(hits)
        cache.count_probes(n)
        return locations


@register_engine("DDFS-Like")
def _build_ddfs(resources, config) -> "DDFSEngine":
    """repro.api factory: DDFS with the config's calibrated parameters."""
    return DDFSEngine(
        resources,
        bloom_capacity=config.bloom_capacity,
        bloom_fp_rate=config.bloom_fp_rate,
        cache_containers=config.cache_containers,
        prefetch_ahead=config.prefetch_ahead,
    )
