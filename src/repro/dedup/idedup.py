"""iDedup-like engine (Srinivasan et al., FAST'12).

iDedup targets the same fragmentation problem as DeFrag from the other
side: instead of scoring stored segments (SPL), it only deduplicates
*sequences* — maximal runs of consecutive duplicate chunks whose stored
copies are physically contiguous (same container here). Runs shorter
than a threshold are written anyway: a short run saves little space but
costs a whole seek at read time, so eliminating it is a bad trade.

Mechanically this engine shares DDFS's identification ladder (bloom +
prefetch cache + on-disk index) and adds a placement stage like DeFrag's,
so all three selective schemes are directly comparable on one substrate.
The relationship to the paper's policy: iDedup's criterion is *adjacency
run length in the incoming stream*, DeFrag's is *share of the incoming
segment per stored segment* — the ablation benches let you see where the
two disagree.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.api import register_engine
from repro._util import check_positive
from repro.dedup.base import CostModel, EngineResources, SegmentOutcome
from repro.dedup.ddfs import DDFSEngine
from repro.index.full_index import ChunkLocation
from repro.segmenting.segmenter import Segment


class IDedupEngine(DDFSEngine):
    """Selective dedup by minimum duplicate-sequence length.

    Args:
        resources, cost, bloom_capacity, bloom_fp_rate, cache_containers,
            prefetch_ahead: as in :class:`~repro.dedup.ddfs.DDFSEngine`.
        min_sequence: minimum run of stream-consecutive duplicates (whose
            copies share a container) that is allowed to deduplicate;
            shorter runs are rewritten. iDedup's paper sweeps 2-32.
    """

    def __init__(
        self,
        resources: EngineResources,
        cost: Optional[CostModel] = None,
        *,
        min_sequence: int = 8,
        **ddfs_kwargs,
    ) -> None:
        super().__init__(resources, cost, **ddfs_kwargs)
        check_positive("min_sequence", min_sequence)
        self.min_sequence = int(min_sequence)
        self.total_rewritten_bytes = 0
        self.total_rewritten_chunks = 0

    # ------------------------------------------------------------------

    def _dup_runs(self, locations: List[Optional[ChunkLocation]]) -> List[bool]:
        """For each chunk, True if it belongs to a *deduplicable* run:
        a maximal run of consecutive duplicates resolved to one container
        with length >= min_sequence. Runs are found by diffing the
        per-chunk container-id vector (new chunks marked with -1, which no
        stored chunk uses), then length-filtered in one expression."""
        n = len(locations)
        if n == 0:
            return []
        cid_arr = np.fromiter(
            (loc.cid if loc is not None else -1 for loc in locations),
            dtype=np.int64,
            count=n,
        )
        change = np.flatnonzero(cid_arr[1:] != cid_arr[:-1]) + 1
        starts = np.concatenate((np.zeros(1, dtype=np.int64), change))
        lengths = np.diff(np.concatenate((starts, np.array([n], dtype=np.int64))))
        run_keep = (cid_arr[starts] >= 0) & (lengths >= self.min_sequence)
        return np.repeat(run_keep, lengths).tolist()

    def _process_segment(self, segment: Segment) -> SegmentOutcome:
        """Segment-at-a-time identify/filter/place: vectorized
        identification (shared DDFS ladder), vectorized run detection,
        then a per-chunk place walk with the summary-vector inserts
        deferred to one ``add_many`` (nothing reads the bloom during
        placement). Byte-identical to the chunk-at-a-time ladder in
        ``tests/oracle/segment_ladder.py``."""
        n = segment.n_chunks
        outcome = SegmentOutcome(index=segment.index, n_chunks=n, nbytes=segment.nbytes)
        assert self._recipe is not None

        locations = self._identify(segment)
        keep = self._dup_runs(locations)

        sid = self._allocate_sid()
        fps = segment.fps.tolist()
        sizes = segment.sizes.tolist()
        index = self.res.index
        index_insert = index.insert
        index_update = index.update
        store_append = self.res.store.append
        stream = self._stream_new
        stream_get = stream.get

        cids = [0] * n
        new_fps: List[int] = []
        written = removed = rewritten = 0
        for i in range(n):
            fp = fps[i]
            loc = locations[i]
            if loc is None:
                prior = stream_get(fp)
                if prior is not None:
                    removed += sizes[i]
                    cids[i] = prior.cid
                    continue
                size = sizes[i]
                cid = store_append(fp, size)
                nloc = ChunkLocation(cid, sid)
                index_insert(fp, nloc)
                stream[fp] = nloc
                new_fps.append(fp)
                written += size
                cids[i] = cid
            elif keep[i]:
                removed += sizes[i]
                cids[i] = loc.cid
            else:
                # short-sequence duplicate: write it again
                size = sizes[i]
                cid = store_append(fp, size)
                nloc = ChunkLocation(cid, sid)
                index_update(fp, nloc)
                stream[fp] = nloc
                self.total_rewritten_bytes += size
                self.total_rewritten_chunks += 1
                rewritten += size
                cids[i] = cid
        if new_fps:
            self.bloom.add_many(np.asarray(new_fps, dtype=np.uint64))
        outcome.written_new = written
        outcome.removed_dup = removed
        outcome.rewritten_dup = rewritten
        self._recipe.add_many(fps, sizes, cids)
        return outcome


@register_engine("iDedup")
def _build_idedup(resources, config) -> "IDedupEngine":
    """repro.api factory: iDedup with the config's calibrated parameters."""
    return IDedupEngine(
        resources,
        min_sequence=8,
        bloom_capacity=config.bloom_capacity,
        bloom_fp_rate=config.bloom_fp_rate,
        cache_containers=config.cache_containers,
        prefetch_ahead=config.prefetch_ahead,
    )
