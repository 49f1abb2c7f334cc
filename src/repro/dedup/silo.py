"""SiLo-like engine (Xia et al., USENIX ATC'11).

SiLo keeps only one *representative fingerprint per segment* in RAM (the
similarity index) — a tiny fraction of the full chunk index — and makes
dedup near-exact instead of exact:

1. Summarize the incoming segment by its minimum fingerprint.
2. Probe the RAM similarity index. On a hit, read the matching *block's*
   fingerprint index from disk (one seek + metadata transfer) into the
   prefetch cache — the block holds several contiguous segments of the
   stream that stored the similar segment, so duplicate locality makes
   neighbouring duplicates resolvable from RAM too.
3. Dedup the segment's chunks against the cache (and the current-stream
   buffer). Chunks not found are written as new — even when they are
   true duplicates stored in some *dissimilar* block. Those silent misses
   are exactly the paper's "deduplication efficiency" loss, and they grow
   as placement de-linearizes (Fig. 3 / Fig. 5).

Block metadata indexes **all** logical chunks of its member segments
(duplicates included, with their locations), matching SiLo's on-disk
segment-index layout; without that, cross-generation similarity hits
would find nothing.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.api import register_engine
from repro._util import MIB, check_positive
from repro.dedup.base import CostModel, DedupEngine, EngineResources, SegmentOutcome
from repro.index.cache import FingerprintPrefetchCache
from repro.index.full_index import ChunkLocation
from repro.index.similarity import SimilarityIndex
from repro.segmenting.blocks import Block, BlockBuilder, representative_fingerprint
from repro.segmenting.segmenter import Segment


class SiLoEngine(DedupEngine):
    """Similarity+locality near-exact deduplication.

    Args:
        resources: shared disk/store/index substrate (the on-disk chunk
            index is *not* consulted — SiLo's point is to avoid it; chunk
            locations ride in block metadata, modeled by a RAM map).
        cost: CPU cost model.
        block_bytes: logical bytes of segment data grouped per block.
        cache_blocks: prefetch-cache capacity in block indexes.
        similarity_capacity: bounded RAM budget of the similarity index,
            in representative entries (None = unbounded oracle).
    """

    def __init__(
        self,
        resources: EngineResources,
        cost: Optional[CostModel] = None,
        *,
        block_bytes: int = 8 * MIB,
        cache_blocks: int = 64,
        similarity_capacity: Optional[int] = None,
        obs=None,
    ) -> None:
        super().__init__(resources, cost, obs=obs)
        check_positive("cache_blocks", cache_blocks)
        self.similarity = SimilarityIndex(capacity=similarity_capacity)
        self.cache = FingerprintPrefetchCache(cache_blocks)
        self._builder = BlockBuilder(block_bytes)
        self._blocks: Dict[int, Block] = {}
        # fp -> container location for every chunk that has a stored copy;
        # RAM bookkeeping standing in for the locations kept inside block
        # metadata on disk (only consulted after a cache/buffer hit).
        self._locations: Dict[int, ChunkLocation] = {}
        self._stream_new: Dict[int, ChunkLocation] = {}

    # ------------------------------------------------------------------

    def _on_begin_backup(self) -> None:
        self._stream_new = {}
        self._cache_t0 = (self.cache.stats.hits, self.cache.stats.units_inserted)
        self._sim_t0 = (self.similarity.stats.lookups, self.similarity.stats.hits)

    def _collect_extras(self) -> dict:
        hits0, units0 = self._cache_t0
        lookups0, sim_hits0 = self._sim_t0
        hits = self.cache.stats.hits - hits0
        units = self.cache.stats.units_inserted - units0
        lookups = self.similarity.stats.lookups - lookups0
        sim_hits = self.similarity.stats.hits - sim_hits0
        return {
            "cache_hits": float(hits),
            "block_fetches": float(units),
            "hits_per_prefetch": hits / units if units else float(hits),
            "similarity_lookups": float(lookups),
            "similarity_hit_rate": sim_hits / lookups if lookups else 0.0,
        }

    def _on_end_backup(self) -> None:
        # a backup boundary always closes the open block
        self._seal_block()

    def _seal_block(self) -> None:
        block = self._builder.seal()
        if block is None:
            return
        self._blocks[block.bid] = block
        # the block's fingerprint index is written with it: sequential
        # metadata transfer (its payload was already charged by the
        # container store as chunks were appended)
        self.res.write(block.metadata_bytes)
        for rep in block.segment_reps:
            self.similarity.insert(int(rep), block.bid)

    def _fetch_block(self, bid: int) -> None:
        """Read a block's fingerprint index into the prefetch cache."""
        if self.cache.has_unit(bid):
            return
        block = self._blocks[bid]
        self.res.read(block.metadata_bytes, seeks=1)
        self.cache.insert_unit(bid, block.fingerprints)

    def _process_segment(self, segment: Segment) -> SegmentOutcome:
        """Segment-at-a-time ingest. After the similarity probe and the
        (at most one) block fetch, the prefetch cache is static for the
        rest of the segment — writes never touch it — so one
        :meth:`lookup_many` resolves cache membership for the whole
        fingerprint vector up front; locations then come from the RAM
        maps, live per chunk. Byte-identical to the chunk-at-a-time ladder
        in ``tests/oracle/segment_ladder.py``."""
        n = segment.n_chunks
        outcome = SegmentOutcome(index=segment.index, n_chunks=n, nbytes=segment.nbytes)
        assert self._recipe is not None

        fps_arr = segment.fps
        if n:
            rep = representative_fingerprint(fps_arr)
            bid = self.similarity.lookup(rep)
            if bid is not None:
                self._fetch_block(bid)

        cache = self.cache
        touch = cache.touch_unit
        uids_arr = cache.lookup_many(fps_arr)
        uids = uids_arr.tolist()
        miss_pos = np.flatnonzero(uids_arr < 0)
        fps = fps_arr.tolist()
        sizes = segment.sizes.tolist()
        locations = self._locations
        locations_get = locations.get
        store_append = self.res.store.append
        stream = self._stream_new
        stream_get = stream.get

        cids = [0] * n
        written = removed = hits = 0
        i = 0
        while i < n:
            fp = fps[i]
            uid = uids[i]
            loc: Optional[ChunkLocation] = None
            if uid >= 0:
                # Take the maximal run [i, j) of cache hits: hits read
                # the static cache and the location map — which writes
                # grow, but only with fingerprints the cache cannot
                # cover — so nothing inside the run changes a later
                # chunk's answer. LRU refreshes collapse consecutive
                # duplicate units (re-moving the most-recent unit is a
                # no-op, so the collapsed order is identical).
                k = int(np.searchsorted(miss_pos, i))
                j = int(miss_pos[k]) if k < miss_pos.size else n
                found = [locations_get(f) for f in fps[i:j]]
                if None not in found:
                    run = uids_arr[i:j]
                    reps = run[np.concatenate(([0], np.flatnonzero(np.diff(run)) + 1))]
                    for u in reps.tolist():
                        touch(u)
                    hits += j - i
                    removed += sum(sizes[i:j])
                    cids[i:j] = [loc.cid for loc in found]
                    i = j
                    continue
                # a cached fingerprint with no stored copy cannot happen
                # for real blocks (every block fp was stored), but the
                # chunk-at-a-time ladder tolerates it — resolve this chunk alone
                touch(uid)
                hits += 1
                loc = found[0]
            if loc is None:
                loc = stream_get(fp)
            if loc is None:
                # new (or undetected duplicate): store it
                size = sizes[i]
                cid = store_append(fp, size)
                loc = ChunkLocation(cid, -1)
                locations[fp] = loc
                stream[fp] = loc
                written += size
                cids[i] = cid
            else:
                removed += sizes[i]
                cids[i] = loc.cid
            i += 1
        cache.count_hits(hits)
        cache.count_probes(n)
        outcome.written_new = written
        outcome.removed_dup = removed
        self._recipe.add_many(fps, sizes, cids)

        # every logical chunk of the segment is indexed in its block
        self._builder.add_segment(segment, fps_arr, segment.nbytes)
        if self._builder.should_seal():
            self._seal_block()
        return outcome


@register_engine("SiLo-Like")
def _build_silo(resources, config) -> "SiLoEngine":
    """repro.api factory: SiLo with the config's calibrated parameters."""
    return SiLoEngine(
        resources,
        block_bytes=config.silo_block_bytes,
        cache_blocks=config.silo_cache_blocks,
        similarity_capacity=config.silo_similarity_capacity,
    )
