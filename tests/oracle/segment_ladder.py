"""Chunk-at-a-time segment ladders: the executable specification of ingest.

The product engines resolve a segment's whole fingerprint vector at a
time. This module keeps the original one-chunk-at-a-time decision
ladders of DDFS, DeFrag, iDedup, SiLo, Exact and RevDedup as plain
functions that take the engine as their first argument.
:func:`ladder_engines` installs them as ``_process_segment`` on those
six classes for the duration of a ``with`` block, so any workload or
figure can be replayed through the ladder and compared with the product
byte for byte: reports, simulated clock, every counter, recipes, and
traced metrics and events.

:data:`calls` counts ladder segments processed, so a test can prove the
ladder actually ran (and that memoised product results were not served
in its place).
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, Optional

from repro.core.defrag import DeFragEngine
from repro.core.spl import SPLProfile, spl_profile
from repro.dedup.base import SegmentOutcome
from repro.dedup.ddfs import DDFSEngine
from repro.dedup.exact import ExactEngine
from repro.dedup.idedup import IDedupEngine
from repro.dedup.revdedup import RevDedupEngine
from repro.dedup.silo import SiLoEngine
from repro.index.full_index import ChunkLocation
from repro.segmenting.blocks import representative_fingerprint
from repro.segmenting.segmenter import Segment

#: segments processed by any ladder since import
calls = 0


# -- DDFS ---------------------------------------------------------------


def ddfs_write_new_chunk(engine, fp: int, size: int, sid: int) -> int:
    """Append a new unique chunk; returns its container id."""
    cid = engine.res.store.append(fp, size)
    loc = ChunkLocation(cid, sid)
    engine.res.index.insert(fp, loc)
    engine._stream_new[fp] = loc
    engine.bloom.add(fp)
    return cid


def ddfs_resolve_duplicate(engine, fp: int) -> Optional[ChunkLocation]:
    """The decision ladder for a possibly-duplicate chunk. Returns the
    stored location, or None if the chunk is new. Charges all disk
    costs (index fault, metadata prefetch) as they occur."""
    # rung 1: prefetch cache
    cached_cid = engine.cache.lookup(fp)
    if cached_cid is not None:
        loc = engine.res.index.peek(fp)
        # container metadata also records the segment id; peek is the
        # bookkeeping equivalent and charges nothing
        return loc if loc is not None else ChunkLocation(cached_cid, -1)
    # rung 2: current-stream buffer
    loc = engine._stream_new.get(fp)
    if loc is not None:
        return loc
    # rung 3: summary vector
    if fp not in engine.bloom:
        return None
    # rung 4: on-disk index (+ locality prefetch on a hit)
    loc = engine.res.index.lookup(fp)
    if loc is None:
        return None  # bloom false positive
    engine._prefetch_containers(loc.cid)
    return loc


def ddfs_process_segment(engine, segment: Segment) -> SegmentOutcome:
    outcome = SegmentOutcome(
        index=segment.index, n_chunks=segment.n_chunks, nbytes=segment.nbytes
    )
    assert engine._recipe is not None
    sid = engine._allocate_sid()
    recipe = engine._recipe
    for fp, size in zip(segment.fps, segment.sizes):
        fp = int(fp)
        size = int(size)
        loc = ddfs_resolve_duplicate(engine, fp)
        if loc is None:
            cid = ddfs_write_new_chunk(engine, fp, size, sid)
            outcome.written_new += size
            recipe.add(fp, size, cid)
        else:
            outcome.removed_dup += size
            recipe.add(fp, size, loc.cid)
    return outcome


# -- DeFrag -------------------------------------------------------------


def defrag_identify(engine, segment: Segment) -> List[Optional[ChunkLocation]]:
    """Phase 1: the DDFS ladder for every chunk (charges disk)."""
    return [ddfs_resolve_duplicate(engine, int(fp)) for fp in segment.fps]


def defrag_profile(
    engine, segment: Segment, locations: List[Optional[ChunkLocation]]
) -> SPLProfile:
    """Phase 2a: SPL profile from the identification results."""
    dup_sids: List[int] = []
    dup_weights: List[int] = []
    for loc, size in zip(locations, segment.sizes):
        if loc is not None:
            dup_sids.append(loc.sid)
            dup_weights.append(int(size))
    if engine.byte_weighted_spl:
        return spl_profile(
            dup_sids,
            segment.n_chunks,
            dup_weights=dup_weights,
            segment_nbytes=segment.nbytes,
        )
    return spl_profile(dup_sids, segment.n_chunks)


def defrag_rewrite_duplicate(engine, fp: int, size: int, sid: int) -> int:
    """Phase 3, rewrite path: store the duplicate again next to the
    segment's new chunks and re-point the index at the fresh copy."""
    cid = engine.res.store.append(fp, size)
    loc = ChunkLocation(cid, sid)
    engine.res.index.update(fp, loc)
    engine._stream_new[fp] = loc
    engine.total_rewritten_bytes += size
    engine.total_rewritten_chunks += 1
    return cid


def defrag_process_segment(engine, segment: Segment) -> SegmentOutcome:
    outcome = SegmentOutcome(
        index=segment.index, n_chunks=segment.n_chunks, nbytes=segment.nbytes
    )
    assert engine._recipe is not None
    recipe = engine._recipe

    observing = engine.obs.enabled
    clock = engine.res.disk.clock
    t0 = clock.now
    locations = defrag_identify(engine, segment)
    t1 = clock.now
    profile = defrag_profile(engine, segment, locations)
    decision = engine.policy.decide(profile)
    engine._referenced_segment_groups += profile.n_referenced_segments
    engine._rewritten_groups += decision.n_rewritten_segments
    if decision.n_rewritten_segments:
        engine._segments_with_rewrites += 1
    if observing:
        engine._record_decision(segment, profile, decision, locations)

    sid = engine._allocate_sid()
    for fp, size, loc in zip(segment.fps, segment.sizes, locations):
        fp = int(fp)
        size = int(size)
        if loc is None:
            # identification ran before any of this segment's writes;
            # an earlier occurrence within the segment may have landed
            # in the stream buffer since
            prior = engine._stream_new.get(fp)
            if prior is not None:
                outcome.removed_dup += size
                recipe.add(fp, size, prior.cid)
                continue
            cid = ddfs_write_new_chunk(engine, fp, size, sid)
            outcome.written_new += size
            recipe.add(fp, size, cid)
        elif decision.should_rewrite(loc.sid):
            cid = defrag_rewrite_duplicate(engine, fp, size, sid)
            outcome.rewritten_dup += size
            recipe.add(fp, size, cid)
        else:
            outcome.removed_dup += size
            recipe.add(fp, size, loc.cid)
    if observing:
        engine._record_phases(t0, t1, clock.now)
    return outcome


# -- iDedup -------------------------------------------------------------


def idedup_dup_runs(engine, locations: List[Optional[ChunkLocation]]) -> List[bool]:
    """For each chunk, True if it belongs to a *deduplicable* run:
    a maximal run of consecutive duplicates resolved to one container
    with length >= min_sequence."""
    n = len(locations)
    keep = [False] * n
    i = 0
    while i < n:
        loc = locations[i]
        if loc is None:
            i += 1
            continue
        j = i + 1
        while j < n and locations[j] is not None and locations[j].cid == loc.cid:
            j += 1
        if j - i >= engine.min_sequence:
            for k in range(i, j):
                keep[k] = True
        i = j
    return keep


def idedup_process_segment(engine, segment: Segment) -> SegmentOutcome:
    outcome = SegmentOutcome(
        index=segment.index, n_chunks=segment.n_chunks, nbytes=segment.nbytes
    )
    assert engine._recipe is not None
    recipe = engine._recipe

    locations = [ddfs_resolve_duplicate(engine, int(fp)) for fp in segment.fps]
    keep = idedup_dup_runs(engine, locations)

    sid = engine._allocate_sid()
    for fp, size, loc, keep_dup in zip(segment.fps, segment.sizes, locations, keep):
        fp = int(fp)
        size = int(size)
        if loc is None:
            prior = engine._stream_new.get(fp)
            if prior is not None:
                outcome.removed_dup += size
                recipe.add(fp, size, prior.cid)
                continue
            cid = ddfs_write_new_chunk(engine, fp, size, sid)
            outcome.written_new += size
            recipe.add(fp, size, cid)
        elif keep_dup:
            outcome.removed_dup += size
            recipe.add(fp, size, loc.cid)
        else:
            # short-sequence duplicate: write it again
            cid = engine.res.store.append(fp, size)
            new_loc = ChunkLocation(cid, sid)
            engine.res.index.update(fp, new_loc)
            engine._stream_new[fp] = new_loc
            engine.total_rewritten_bytes += size
            engine.total_rewritten_chunks += 1
            outcome.rewritten_dup += size
            recipe.add(fp, size, cid)
    return outcome


# -- SiLo ---------------------------------------------------------------


def silo_process_segment(engine, segment: Segment) -> SegmentOutcome:
    outcome = SegmentOutcome(
        index=segment.index, n_chunks=segment.n_chunks, nbytes=segment.nbytes
    )
    assert engine._recipe is not None
    recipe = engine._recipe

    if segment.n_chunks:
        rep = representative_fingerprint(segment.fps)
        bid = engine.similarity.lookup(rep)
        if bid is not None:
            engine._fetch_block(bid)

    for fp, size in zip(segment.fps, segment.sizes):
        fp = int(fp)
        size = int(size)
        loc: Optional[ChunkLocation] = None
        if engine.cache.lookup(fp) is not None:
            loc = engine._locations.get(fp)
        if loc is None:
            loc = engine._stream_new.get(fp)
        if loc is None:
            # new (or undetected duplicate): store it
            cid = engine.res.store.append(fp, size)
            loc = ChunkLocation(cid, -1)
            engine._locations[fp] = loc
            engine._stream_new[fp] = loc
            outcome.written_new += size
            recipe.add(fp, size, cid)
        else:
            outcome.removed_dup += size
            recipe.add(fp, size, loc.cid)

    # every logical chunk of the segment is indexed in its block
    engine._builder.add_segment(segment, segment.fps, segment.nbytes)
    if engine._builder.should_seal():
        engine._seal_block()
    return outcome


# -- Exact --------------------------------------------------------------


def exact_process_segment(engine, segment: Segment) -> SegmentOutcome:
    outcome = SegmentOutcome(
        index=segment.index, n_chunks=segment.n_chunks, nbytes=segment.nbytes
    )
    assert engine._recipe is not None
    recipe = engine._recipe
    sid = engine._next_sid
    engine._next_sid += 1
    for fp, size in zip(segment.fps, segment.sizes):
        fp = int(fp)
        size = int(size)
        loc = engine._stream_new.get(fp)
        if loc is None:
            loc = engine.res.index.lookup(fp)
        if loc is None:
            cid = engine.res.store.append(fp, size)
            new_loc = ChunkLocation(cid, sid)
            engine.res.index.insert(fp, new_loc)
            engine._stream_new[fp] = new_loc
            outcome.written_new += size
            recipe.add(fp, size, cid)
        else:
            outcome.removed_dup += size
            recipe.add(fp, size, loc.cid)
    return outcome


# -- RevDedup -----------------------------------------------------------


def revdedup_process_segment(engine, segment: Segment) -> SegmentOutcome:
    outcome = SegmentOutcome(
        index=segment.index, n_chunks=segment.n_chunks, nbytes=segment.nbytes
    )
    assert engine._recipe is not None
    recipe = engine._recipe
    fps = [int(f) for f in segment.fps]
    sizes = [int(s) for s in segment.sizes]
    key = (tuple(fps), tuple(sizes))
    sid = engine._next_sid
    engine._next_sid += 1
    index = engine.res.index
    store_has = engine.res.store.has
    locs = None
    if key in engine._prev_segs or key in engine._cur_segs:
        locs = [index.peek(fp) for fp in fps]
        if not all(loc is not None and store_has(loc.cid) for loc in locs):
            locs = None
    if locs is not None:
        engine._seg_hits += 1
        for fp, size, loc in zip(fps, sizes, locs):
            recipe.add(fp, size, loc.cid)
        outcome.removed_dup = segment.nbytes
    else:
        engine._seg_writes += 1
        gen_written = engine._gen_written
        store_append = engine.res.store.append
        for fp, size in zip(fps, sizes):
            cid = store_append(fp, size)
            loc = ChunkLocation(cid, sid)
            if index.peek(fp) is None:
                index.insert(fp, loc)
            else:
                index.update(fp, loc)
            gen_written[fp] = cid
            recipe.add(fp, size, cid)
        outcome.written_new = segment.nbytes
    engine._cur_segs.add(key)
    return outcome


# -- installation -------------------------------------------------------

#: engine class -> its chunk-at-a-time ladder
LADDERS = {
    DDFSEngine: ddfs_process_segment,
    DeFragEngine: defrag_process_segment,
    IDedupEngine: idedup_process_segment,
    SiLoEngine: silo_process_segment,
    ExactEngine: exact_process_segment,
    RevDedupEngine: revdedup_process_segment,
}


def _counted(ladder):
    def _process_segment(engine, segment: Segment) -> SegmentOutcome:
        global calls
        calls += 1
        return ladder(engine, segment)

    return _process_segment


@contextlib.contextmanager
def ladder_engines() -> Iterator[None]:
    """Route every DDFS, DeFrag, iDedup, SiLo, Exact and RevDedup engine
    through its chunk-at-a-time ladder while the block runs (engines built
    before the block are rerouted too: the ladder replaces the class
    attribute)."""
    saved = {cls: cls.__dict__["_process_segment"] for cls in LADDERS}
    try:
        for cls, ladder in LADDERS.items():
            cls._process_segment = _counted(ladder)
        yield
    finally:
        for cls, product in saved.items():
            cls._process_segment = product
