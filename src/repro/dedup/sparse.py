"""Sparse-Indexing engine (Lillibridge et al., FAST'09).

The other classic answer to the disk bottleneck (cited in the paper's
§II-B): keep only a *sample* of fingerprints in RAM. Each incoming
segment's sampled "hooks" vote for stored segments whose manifests
contain those hooks; the top few *champions* have their manifests loaded
from disk and the segment deduplicates against them (plus the prefetch
cache). Like SiLo, detection is near-exact: duplicates outside every
champion's manifest are silently stored again.

Components exercised: :func:`repro.index.sampling.sample_fingerprints`
for hooks, a RAM hook index with bounded per-hook history, on-disk
manifests priced per load.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

import numpy as np

from repro.api import register_engine
from repro._util import check_positive
from repro.dedup.base import CostModel, DedupEngine, EngineResources, SegmentOutcome
from repro.index.cache import FingerprintPrefetchCache
from repro.index.full_index import ChunkLocation
from repro.index.sampling import sample_fingerprints
from repro.segmenting.segmenter import Segment
from repro.storage.container import CHUNK_METADATA_BYTES


class SparseIndexEngine(DedupEngine):
    """Sample-based near-exact deduplication.

    Args:
        resources: shared substrate (the on-disk chunk index is unused —
            sparse indexing exists to avoid it).
        cost: CPU cost model.
        sample_rate: one hook per ``sample_rate`` fingerprints (by value).
        max_champions: manifests loaded per incoming segment.
        hook_history: stored segments remembered per hook (RAM bound).
        cache_manifests: prefetch-cache capacity, in manifests.
    """

    def __init__(
        self,
        resources: EngineResources,
        cost: Optional[CostModel] = None,
        *,
        sample_rate: int = 32,
        max_champions: int = 2,
        hook_history: int = 3,
        cache_manifests: int = 16,
        obs=None,
    ) -> None:
        super().__init__(resources, cost, obs=obs)
        check_positive("sample_rate", sample_rate)
        check_positive("max_champions", max_champions)
        check_positive("hook_history", hook_history)
        self.sample_rate = int(sample_rate)
        self.max_champions = int(max_champions)
        self.hook_history = int(hook_history)
        self.cache = FingerprintPrefetchCache(cache_manifests)
        # RAM hook index: hook fingerprint -> most recent manifest ids
        self._hooks: Dict[int, List[int]] = {}
        # manifests: stored-segment id -> logical fingerprints (charged on load)
        self._manifests: Dict[int, np.ndarray] = {}
        self._locations: Dict[int, ChunkLocation] = {}
        self._stream_new: Dict[int, ChunkLocation] = {}
        self._next_mid = 0
        self.manifest_loads = 0
        self._loads_t0 = 0

    # ------------------------------------------------------------------

    def _on_begin_backup(self) -> None:
        self._stream_new = {}
        self._loads_t0 = self.manifest_loads

    def _champions(self, hooks: np.ndarray) -> List[int]:
        """Rank candidate manifests by hook votes; return the top few."""
        votes: Counter = Counter()
        for h in hooks:
            for mid in self._hooks.get(int(h), ()):
                votes[mid] += 1
        ranked = sorted(votes.items(), key=lambda kv: (-kv[1], -kv[0]))
        return [mid for mid, _ in ranked[: self.max_champions]]

    def _load_manifest(self, mid: int) -> None:
        if self.cache.has_unit(mid):
            return
        fps = self._manifests[mid]
        self.res.read(len(fps) * CHUNK_METADATA_BYTES, seeks=1)
        self.manifest_loads += 1
        self.cache.insert_unit(mid, fps)

    def _register(self, segment: Segment, mid: int, hooks: np.ndarray) -> None:
        self._manifests[mid] = segment.fps.copy()
        for h in hooks:
            history = self._hooks.setdefault(int(h), [])
            history.append(mid)
            if len(history) > self.hook_history:
                del history[0]

    def _process_segment(self, segment: Segment) -> SegmentOutcome:
        outcome = SegmentOutcome(
            index=segment.index, n_chunks=segment.n_chunks, nbytes=segment.nbytes
        )
        assert self._recipe is not None
        recipe = self._recipe
        if segment.n_chunks == 0:
            return outcome

        hooks = sample_fingerprints(segment.fps, self.sample_rate)
        for mid in self._champions(hooks):
            self._load_manifest(mid)

        mid = self._next_mid
        self._next_mid += 1
        for fp, size in zip(segment.fps, segment.sizes):
            fp = int(fp)
            size = int(size)
            loc: Optional[ChunkLocation] = None
            if self.cache.lookup(fp) is not None:
                loc = self._locations.get(fp)
            if loc is None:
                loc = self._stream_new.get(fp)
            if loc is None:
                cid = self.res.store.append(fp, size)
                loc = ChunkLocation(cid, mid)
                self._locations[fp] = loc
                self._stream_new[fp] = loc
                outcome.written_new += size
                recipe.add(fp, size, cid)
            else:
                outcome.removed_dup += size
                recipe.add(fp, size, loc.cid)

        self._register(segment, mid, hooks)
        return outcome

    def _collect_extras(self) -> dict:
        return {
            "manifest_loads": float(self.manifest_loads - self._loads_t0),
            "hook_index_entries": float(len(self._hooks)),
        }


@register_engine("SparseIndex")
def _build_sparse(resources, config) -> "SparseIndexEngine":
    """repro.api factory: sparse indexing sized from the SiLo knobs."""
    return SparseIndexEngine(resources, cache_manifests=config.silo_cache_blocks * 4)
