"""The naive full-index baseline.

Every chunk consults the on-disk chunk index — no summary vector, no
locality prefetching. Deduplication is exact, but almost every lookup is
a random bucket-page read: the undiluted "disk bottleneck" of the
paper's introduction and of DDFS's motivation. Useful as the lower bound
in throughput comparisons and as the correctness oracle for dedup ratios
(it removes every detectable duplicate, like DDFS).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.api import register_engine
from repro.dedup.base import CostModel, DedupEngine, EngineResources, SegmentOutcome
from repro.index.full_index import ChunkLocation
from repro.segmenting.segmenter import Segment


class ExactEngine(DedupEngine):
    """Exact dedup via the on-disk index alone."""

    def __init__(
        self,
        resources: EngineResources,
        cost: Optional[CostModel] = None,
        obs=None,
    ) -> None:
        super().__init__(resources, cost, obs=obs)
        # current-stream buffer (pre-merge), as in DDFSEngine
        self._stream_new: Dict[int, ChunkLocation] = {}
        self._next_sid = 0

    def _on_begin_backup(self) -> None:
        self._stream_new = {}

    def _process_segment(self, segment: Segment) -> SegmentOutcome:
        """Segment-at-a-time ingest. Chunks are routed by RAM-model index
        membership (new vs stored); every routed chunk still pays its
        authoritative :meth:`lookup` — the lookups of a run of duplicates
        are merely deferred into one :meth:`lookup_many` call, flushed
        just before the next new chunk's append so every disk charge and
        page-cache touch lands in the exact chunk-order position. The index
        only ever gains entries mid-segment (for fingerprints that are
        simultaneously entered into the stream buffer, which is checked
        first), so routing at walk time agrees with the deferred lookup's
        result. Byte-identical to the chunk-at-a-time ladder in
        ``tests/oracle/segment_ladder.py``."""
        n = segment.n_chunks
        outcome = SegmentOutcome(index=segment.index, n_chunks=n, nbytes=segment.nbytes)
        assert self._recipe is not None
        sid = self._next_sid
        self._next_sid += 1

        fps = segment.fps.tolist()
        sizes = segment.sizes.tolist()
        index = self.res.index
        contains = index.__contains__
        lookup_many = index.lookup_many
        index_insert = index.insert
        store_append = self.res.store.append
        stream = self._stream_new
        stream_get = stream.get

        cids = [0] * n
        pending: List[int] = []
        written = removed = 0
        for i in range(n):
            fp = fps[i]
            loc = stream_get(fp)
            if loc is not None:
                removed += sizes[i]
                cids[i] = loc.cid
                continue
            pending.append(i)
            if contains(fp):
                removed += sizes[i]
                continue
            # new chunk: resolve the deferred lookups — the new chunk's
            # own negative lookup included — before its append, matching
            # the chunk-order charge sequence
            for j, jloc in zip(pending, lookup_many([fps[j] for j in pending])):
                if jloc is not None:
                    cids[j] = jloc.cid
            pending.clear()
            size = sizes[i]
            cid = store_append(fp, size)
            nloc = ChunkLocation(cid, sid)
            index_insert(fp, nloc)
            stream[fp] = nloc
            written += size
            cids[i] = cid
        if pending:
            for j, jloc in zip(pending, lookup_many([fps[j] for j in pending])):
                cids[j] = jloc.cid
            pending.clear()
        outcome.written_new = written
        outcome.removed_dup = removed
        self._recipe.add_many(fps, sizes, cids)
        return outcome


@register_engine("Exact")
def _build_exact(resources, config) -> "ExactEngine":
    """repro.api factory: the naive full-index baseline."""
    return ExactEngine(resources)
