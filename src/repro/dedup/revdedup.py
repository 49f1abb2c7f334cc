"""RevDedup: reverse-reference deduplication (arXiv 1302.0621).

The policy inverts DeFrag's. Inline work is deliberately coarse: a new
backup is deduplicated only at *segment* granularity against segments
the store has already seen — a fully identical segment is removed by
reference, any changed segment is written out **whole**, duplicate
chunks included, so the newest backup always lands sequentially at the
open end of the log. The fine-grained dedup happens afterwards, in the
out-of-line maintenance pass: every *old* reference to a chunk the new
backup just rewrote is repointed at the fresh copy (the "reverse
reference"), the superseded old copies become dead, and containers that
fall below the utilization floor are compacted through the journaled
two-phase GC protocol.

Consequences the frontier experiment measures: the latest backup
restores nearly seek-free (it is physically sequential), while ingest
writes more bytes than exact dedup and every generation pays an extra
maintenance bill — exactly the opposite trade to DeFrag, which pays
during ingest to keep *all* generations moderately sequential.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

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


class RevDedupEngine(DedupEngine):
    """Coarse inline dedup + reverse-reference rewrite of old copies."""

    def __init__(
        self,
        resources: EngineResources,
        cost: Optional[CostModel] = None,
        obs=None,
        maintenance_min_utilization: float = 0.5,
    ) -> None:
        super().__init__(resources, cost, obs=obs)
        self.maintenance_min_utilization = float(maintenance_min_utilization)
        #: segment content keys ((fps...), (sizes...)) seen in the
        #: previous / current generation — the coarse dedup universe
        self._prev_segs: Set[Tuple[Tuple[int, ...], Tuple[int, ...]]] = set()
        self._cur_segs: Set[Tuple[Tuple[int, ...], Tuple[int, ...]]] = set()
        #: chunks this generation wrote, pending reverse-reference
        #: rewrite (fp -> fresh cid); consumed by :meth:`maintenance`
        self._pending_redirect: Dict[int, int] = {}
        self._gen_written: Dict[int, int] = {}
        self._next_sid = 0
        self._seg_hits = 0
        self._seg_writes = 0

    def _on_begin_backup(self) -> None:
        self._prev_segs = self._cur_segs
        self._cur_segs = set()
        self._gen_written = {}
        self._seg_hits = 0
        self._seg_writes = 0

    def _on_end_backup(self) -> None:
        # survive until a maintenance pass consumes them, even if the
        # driver skips a generation between passes
        self._pending_redirect.update(self._gen_written)

    def _collect_extras(self) -> Dict[str, float]:
        return {
            "segment_hits": float(self._seg_hits),
            "segment_writes": float(self._seg_writes),
        }

    def _process_segment(self, segment: Segment) -> SegmentOutcome:
        outcome = SegmentOutcome(
            index=segment.index, n_chunks=segment.n_chunks, nbytes=segment.nbytes
        )
        assert self._recipe is not None
        fps = segment.fps.tolist()
        sizes = segment.sizes.tolist()
        key = (tuple(fps), tuple(sizes))
        sid = self._next_sid
        self._next_sid += 1
        index = self.res.index
        cids = None
        if key in self._prev_segs or key in self._cur_segs:
            # whole-segment duplicate: reference the stored copies at
            # whatever location the index currently considers canonical
            # (peek is a RAM probe — coarse dedup pays no index IO).
            # An external GC pass may have collected a copy behind the
            # engine's back, and a copy may still sit in the open
            # container; any unresolvable chunk demotes the whole
            # segment to the write path.
            locs = index.peek_many(fps)
            if None not in locs:
                cids = [loc.cid for loc in locs]
                if not all(map(self.res.store.has, set(cids))):
                    cids = None
        if cids is not None:
            self._seg_hits += 1
            outcome.removed_dup = segment.nbytes
        else:
            # any change at all: write the segment out whole, duplicate
            # chunks included, keeping the new backup sequential; the
            # index is repointed so the fresh copy becomes canonical
            self._seg_writes += 1
            cids = self.res.store.append_run(fps, sizes)
            homes = {cid: ChunkLocation(cid, sid) for cid in set(cids)}
            index.upsert_many(fps, [homes[cid] for cid in cids])
            self._gen_written.update(zip(fps, cids))
            outcome.written_new = segment.nbytes
        self._recipe.add_many(fps, sizes, cids)
        self._cur_segs.add(key)
        return outcome

    # -- out-of-line maintenance ------------------------------------------

    def maintenance(
        self, retained: Sequence[BackupRecipe]
    ) -> Tuple[Optional[MaintenanceReport], List[BackupRecipe]]:
        """Reverse-reference rewrite: repoint every old reference to a
        just-rewritten chunk at the fresh copy, then compact containers
        the repoints emptied (journaled two-phase GC underneath)."""
        redirect = self._pending_redirect
        if not redirect:
            return None, list(retained)
        disk = self.res.disk
        t0 = disk.clock.now
        d0 = disk.stats.snapshot()
        # reverse-reference discovery: the pass must consult the
        # authoritative index for every chunk the window rewrote —
        # resolved as one sorted-merge sweep of the on-disk index, the
        # batched access pattern an out-of-line pass can afford and an
        # inline one cannot
        self.res.index.lookup_batch_sorted(list(redirect))
        gc = GarbageCollector(self.res.store, self.res.index)
        gc_report, remapped = gc.collect(
            retained,
            min_utilization=self.maintenance_min_utilization,
            redirect=redirect,
            rewrite_redirected=True,
        )
        self._pending_redirect = {}
        report = MaintenanceReport(
            generation=self._generation,
            engine=self.name,
            elapsed_seconds=disk.clock.now - t0,
            containers_rewritten=gc_report.containers_collected,
            bytes_moved=gc_report.bytes_moved,
            bytes_reclaimed=gc_report.bytes_reclaimed,
            redirected_chunks=gc_report.redirected_chunks,
            index_lookups=len(redirect),
            disk_delta=disk.stats.delta_since(d0),
        )
        return report, remapped


@register_engine(
    "RevDedup",
    supports_maintenance=True,
    rewrites_old_containers=True,
    doc="coarse inline dedup; maintenance repoints old backups at the "
    "newest copies so the latest backup stays sequential",
)
def _build_revdedup(resources, config) -> "RevDedupEngine":
    """repro.api factory: reverse-reference dedup (RevDedup)."""
    return RevDedupEngine(
        resources,
        maintenance_min_utilization=config.maintenance_min_utilization,
    )
