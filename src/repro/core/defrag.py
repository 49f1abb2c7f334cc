"""DeFragEngine: DDFS identification + SPL-driven selective rewrite.

Processing of one incoming segment (paper §III-B) is three-phase:

1. **Identify** — resolve every chunk through the DDFS decision ladder
   (prefetch cache → stream buffer → summary vector → on-disk index with
   locality prefetch), collecting for each duplicate the stored segment
   id holding its copy. All identification disk costs are charged here,
   identically to DDFS.
2. **Decide** — build the segment's SPL profile and ask the rewrite
   policy (the paper's α-threshold by default) which stored segments'
   duplicates to rewrite.
3. **Place** — walk the segment in stream order: new chunks and rewritten
   duplicates are appended to the container log (and the index is
   re-pointed at the fresh copies, so *future* streams inherit the
   restored linearity); kept duplicates are referenced in place.

The engine inherits all DDFS parameters; with
``policy=SPLThresholdPolicy(alpha=0.0)`` (or ``NeverRewritePolicy``) it
degrades to byte-identical DDFS behaviour, which the tests assert.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Tuple

import numpy as np

from repro.api import register_engine
from repro.core.policy import RewritePolicy, SPLThresholdPolicy
from repro.core.spl import SPLProfile
from repro.dedup.base import CostModel, EngineResources, SegmentOutcome
from repro.dedup.ddfs import DDFSEngine
from repro.index.full_index import ChunkLocation
from repro.obs.registry import SPL_EDGES
from repro.segmenting.segmenter import Segment


class DeFragEngine(DDFSEngine):
    """Selective deduplication guided by Spatial Locality Level.

    Args:
        resources, cost, bloom_capacity, bloom_fp_rate, cache_containers:
            as in :class:`~repro.dedup.ddfs.DDFSEngine`.
        policy: the rewrite policy; defaults to the paper's
            ``SPLThresholdPolicy(alpha=0.1)``.
        byte_weighted_spl: score SPL in bytes instead of chunk counts
            (ablation; the paper counts chunks).
    """

    def __init__(
        self,
        resources: EngineResources,
        cost: Optional[CostModel] = None,
        *,
        policy: Optional[RewritePolicy] = None,
        byte_weighted_spl: bool = False,
        **ddfs_kwargs,
    ) -> None:
        super().__init__(resources, cost, **ddfs_kwargs)
        self.policy = policy if policy is not None else SPLThresholdPolicy(alpha=0.1)
        self.byte_weighted_spl = bool(byte_weighted_spl)
        # cumulative accounting of intentionally kept redundancy
        self.total_rewritten_bytes = 0
        self.total_rewritten_chunks = 0
        # per-backup policy telemetry (reset in _on_begin_backup)
        self._segments_with_rewrites = 0
        self._referenced_segment_groups = 0
        self._rewritten_groups = 0

    # ------------------------------------------------------------------

    def _profile(self, segment: Segment, locations) -> SPLProfile:
        """Phase 2a: the SPL profile's shares keyed in ascending
        sid order (identical shares to
        :func:`~repro.core.spl.spl_profile`). Chunk counts come from a
        ``Counter`` — a segment holds a few dozen chunks, too few to pay
        for numpy calls; byte weights from one ``np.unique``."""
        if not self.byte_weighted_spl:
            counts = Counter([loc.sid for loc in locations if loc is not None])
            return SPLProfile(
                segment_total=segment.n_chunks, shares=dict(sorted(counts.items()))
            )
        sids = np.fromiter(
            (loc.sid for loc in locations if loc is not None), dtype=np.int64
        )
        dup_mask = np.fromiter(
            (loc is not None for loc in locations), dtype=bool, count=len(locations)
        )
        weights = segment.sizes[dup_mask].astype(np.int64)
        uniq, inverse = np.unique(sids, return_inverse=True)
        # float64 bincount is exact here: per-segment byte sums < 2**53
        sums = np.bincount(inverse, weights=weights).astype(np.int64)
        shares = dict(zip(uniq.tolist(), sums.tolist()))
        return SPLProfile(segment_total=segment.nbytes, shares=shares)

    def _process_segment(self, segment: Segment) -> SegmentOutcome:
        """Segment-at-a-time identify/decide/place. Identification and the
        SPL profile are batched; the place walk defers the summary-vector
        inserts to one ``add_positions`` (no chunk reads the bloom between
        a place-phase write and the end of the segment, so the deferral is
        invisible) that reuses the probe positions hashed for
        identification. Equivalent bit-for-bit to the chunk-at-a-time
        ladder in ``tests/oracle/segment_ladder.py``."""
        n = segment.n_chunks
        outcome = SegmentOutcome(index=segment.index, n_chunks=n, nbytes=segment.nbytes)
        assert self._recipe is not None

        observing = self.obs.enabled
        clock = self.res.disk.clock
        t0 = clock.now
        positions = self.bloom.positions(segment.fps)
        locations = self._identify(segment, positions)
        t1 = clock.now
        profile = self._profile(segment, locations)
        decision = self.policy.decide(profile)
        self._referenced_segment_groups += profile.n_referenced_segments
        self._rewritten_groups += decision.n_rewritten_segments
        if decision.n_rewritten_segments:
            self._segments_with_rewrites += 1
        if observing:
            self._record_decision(segment, profile, decision, locations)
        rewrite_sids = decision.rewrite_sids

        sid = self._allocate_sid()
        fps = segment.fps.tolist()
        sizes = segment.sizes.tolist()
        index = self.res.index
        stream = self._stream_new

        # Non-event chunks — duplicates kept in place — only record their
        # identify-time location and count as removed; the stateful walk
        # below visits just the events (writes and rewrites), which is
        # the same visit order the chunk-at-a-time walk charges them in.
        cids = [0 if loc is None else loc.cid for loc in locations]
        if rewrite_sids:
            events = [
                i
                for i, loc in enumerate(locations)
                if loc is None or loc.sid in rewrite_sids
            ]
        else:
            events = [i for i, loc in enumerate(locations) if loc is None]

        # The appends have no read dependency on each other: a loc-None
        # event's fp was absent from stream/cache/index at identify time
        # (otherwise the ladder would have resolved it — the summary
        # vector has no false negatives), so the chunk-at-a-time walk's
        # stream-buffer hits come only from the *first* loc-None write of
        # the same fp earlier in this segment, and rewrite events never
        # read at all. The whole event walk therefore classifies first
        # and appends in one packed run: identical container packing and
        # seal charges (the only disk events of the place phase), and the
        # new/rewritten fp sets are disjoint, so folding the index writes
        # into one insert_many + update_many preserves the final map.
        new_fps: List[int] = []
        new_events: List[int] = []
        new_slots: List[int] = []
        re_fps: List[int] = []
        re_slots: List[int] = []
        w_fps: List[int] = []
        w_sizes: List[int] = []
        w_events: List[int] = []
        dup_events: List[Tuple[int, int]] = []  # (event idx, write slot)
        first_slot = {}
        written = rewritten = 0
        removed = outcome.nbytes - sum(sizes[i] for i in events)
        for i in events:
            fp = fps[i]
            if locations[i] is None:
                slot = first_slot.get(fp)
                if slot is not None:
                    dup_events.append((i, slot))
                    removed += sizes[i]
                    continue
                first_slot[fp] = len(w_fps)
                new_fps.append(fp)
                new_events.append(i)
                new_slots.append(len(w_fps))
                written += sizes[i]
            else:
                re_fps.append(fp)
                re_slots.append(len(w_fps))
                size = sizes[i]
                self.total_rewritten_bytes += size
                rewritten += size
            w_fps.append(fp)
            w_sizes.append(sizes[i])
            w_events.append(i)
        self.total_rewritten_chunks += len(re_fps)
        if w_fps:
            w_cids = self.res.store.append_run(w_fps, w_sizes)
            w_locs = [ChunkLocation(c, sid) for c in w_cids]
            for i, c in zip(w_events, w_cids):
                cids[i] = c
            for i, slot in dup_events:
                cids[i] = w_cids[slot]
            if new_fps:
                index.insert_many(new_fps, [w_locs[s] for s in new_slots])
            if re_fps:
                index.update_many(re_fps, [w_locs[s] for s in re_slots])
            stream.update(zip(w_fps, w_locs))
        if new_events:
            self.bloom.add_positions(positions[new_events])
        outcome.written_new = written
        outcome.removed_dup = removed
        outcome.rewritten_dup = rewritten
        self._recipe.add_many(fps, sizes, cids)
        if observing:
            self._record_phases(t0, t1, clock.now)
        return outcome

    # -- observability -----------------------------------------------------

    def _record_phases(self, t0: float, t1: float, t2: float) -> None:
        """Identify/profile/place span attribution for one segment.

        Profiling and the policy decision are pure RAM work in the model
        (zero simulated time), so the profile span carries counts only;
        the clock deltas split cleanly into identify and place. The
        chunk-at-a-time ladder snapshots the clock at the same phase
        boundaries, so the spans — like every other metric — match it.
        """
        p = self.name
        reg = self.obs.registry
        reg.span(f"{p}.phase.identify").record(t1 - t0)
        reg.span(f"{p}.phase.profile").record(0.0)
        reg.span(f"{p}.phase.place").record(t2 - t1)

    def _record_decision(self, segment, profile, decision, locations) -> None:
        """SPL histogram + one ``defrag_decision`` event per referenced
        stored segment (the paper's rewrite-or-dedup choice, §III-B)."""
        reg = self.obs.registry
        p = self.name
        hist = reg.histogram(f"{p}.spl", SPL_EDGES)
        total = profile.segment_total
        alpha = getattr(self.policy, "alpha", None)
        # the paper's per-segment decision signal over sim time: the
        # largest share any one stored segment holds of this segment
        reg.timeseries(f"{p}.ts.max_spl").sample(
            self.res.disk.clock.now, profile.max_spl
        )
        events = self.obs.events
        if not events.enabled:
            for amount in profile.shares.values():
                hist.observe(amount / total if total else 0.0)
            return
        chunk_share: dict = {}
        byte_share: dict = {}
        for loc, size in zip(locations, segment.sizes):
            if loc is not None:
                s = loc.sid
                chunk_share[s] = chunk_share.get(s, 0) + 1
                byte_share[s] = byte_share.get(s, 0) + int(size)
        for peer, amount in sorted(profile.shares.items()):
            spl = amount / total if total else 0.0
            hist.observe(spl)
            events.emit(
                "defrag_decision",
                engine=p,
                generation=self._generation,
                segment=segment.index,
                peer_segment=int(peer),
                spl=spl,
                alpha=alpha,
                action="rewrite" if decision.should_rewrite(peer) else "dedup",
                chunks=chunk_share.get(peer, 0),
                bytes=byte_share.get(peer, 0),
            )

    def _on_begin_backup(self) -> None:
        super()._on_begin_backup()
        self._segments_with_rewrites = 0
        self._referenced_segment_groups = 0
        self._rewritten_groups = 0

    def _collect_extras(self) -> dict:
        extras = super()._collect_extras()
        extras.update(
            {
                "segments_with_rewrites": float(self._segments_with_rewrites),
                "spl_groups_referenced": float(self._referenced_segment_groups),
                "spl_groups_rewritten": float(self._rewritten_groups),
            }
        )
        return extras


@register_engine("DeFrag")
def _build_defrag(resources, config) -> "DeFragEngine":
    """repro.api factory: DeFrag with the paper's SPL threshold policy."""
    return DeFragEngine(
        resources,
        policy=SPLThresholdPolicy(alpha=config.alpha),
        bloom_capacity=config.bloom_capacity,
        bloom_fp_rate=config.bloom_fp_rate,
        cache_containers=config.cache_containers,
        prefetch_ahead=config.prefetch_ahead,
    )
