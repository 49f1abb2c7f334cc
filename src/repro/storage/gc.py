"""Garbage collection: reclaiming the space selective rewriting leaks.

DeFrag (and iDedup) intentionally store duplicates again; the index then
points at the fresh copy and the old one becomes *garbage* — unless an
older retained backup's recipe still references it. This module closes
that loop the way container-log systems do:

1. **Liveness**: a stored chunk copy is live iff some retained recipe
   references its container (per-container live-byte accounting).
2. **Victim selection**: sealed containers whose live fraction falls
   below a utilization threshold.
3. **Compaction**: read each victim (charged), append its live chunks to
   the open end of the log (charged via the normal seal path), drop the
   victim, and re-point both the chunk index and the retained recipes at
   the moved copies.

A pass works on whole arrays, never chunk by chunk: the retained recipes
are concatenated and sorted once by ``(fingerprint, container)``, and the
three marks of a pass (utilization before, live bytes after the redirect,
utilization after) each reduce the distinct pairs against the sealed
container ids. Container sizes come from the store's resident directory,
so measuring the log never faults a spilled container back in.

The report quantifies the trade the paper leaves implicit: how much of
DeFrag's compression sacrifice is *transient* (reclaimable once old
generations expire) versus permanent.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._util import check_fraction
from repro.storage.recipe import BackupRecipe
from repro.storage.store import ContainerStore

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a cycle:
    # repro.storage -> gc -> repro.index -> repro.storage)
    from repro.index.full_index import DiskChunkIndex

#: shared no-op context for fault-free runs (no per-pass allocation)
_NULL_CTX = contextlib.nullcontext()


@dataclass(frozen=True)
class GCReport:
    """Outcome of one collection pass.

    Attributes:
        containers_examined: sealed containers considered.
        containers_collected: victims compacted and freed.
        bytes_reclaimed: payload bytes freed (dead copies).
        bytes_moved: live payload bytes rewritten during compaction.
        remapped_recipes: retained recipes rewritten to the new layout.
        utilization_before / utilization_after: live fraction of the log.
        redirected_chunks: distinct ``(fingerprint, old container)``
            pairs repointed to a redirect target instead of being copied
            (reverse-reference passes) — not the number of recipe
            references, which can be larger.
    """

    containers_examined: int
    containers_collected: int
    bytes_reclaimed: int
    bytes_moved: int
    remapped_recipes: int
    utilization_before: float
    utilization_after: float
    redirected_chunks: int = 0


class GarbageCollector:
    """Mark-and-compact collector over a :class:`ContainerStore`.

    Args:
        store: the container log (costs charged to its disk).
        index: the chunk index to re-point at moved copies (optional —
            pass the engine's index so future dedup finds the new
            locations).
    """

    def __init__(self, store: ContainerStore, index: "Optional[DiskChunkIndex]" = None) -> None:
        self.store = store
        self.index = index

    def _injector(self):
        """The disk's fault injector, if one is attached."""
        from repro.faults import injector_of

        return injector_of(self.store.disk)

    # ------------------------------------------------------------------

    def _sealed(self) -> np.ndarray:
        """Sorted ids of the sealed containers."""
        return np.asarray(self.store.cids(), dtype=np.int64)

    def _data_bytes(self, sealed: np.ndarray) -> np.ndarray:
        """Payload bytes of each sealed container, read from the store's
        resident directory (a spilled container is never faulted in)."""
        size = self.store.data_bytes
        return np.fromiter((size(cid) for cid in sealed.tolist()), np.int64, len(sealed))

    def live_bytes_per_container(
        self, retained: Sequence[BackupRecipe]
    ) -> Dict[int, int]:
        """Mark phase: payload bytes of each container referenced by any
        retained recipe (each distinct fingerprint counted once)."""
        sealed = self._sealed()
        refs = _References(retained)
        live, referenced = refs.live_bytes(refs.cid, sealed)
        return dict(zip(sealed[referenced].tolist(), live[referenced].tolist()))

    def log_utilization(self, retained: Sequence[BackupRecipe]) -> float:
        """Live fraction of the sealed log."""
        sealed = self._sealed()
        refs = _References(retained)
        return _utilization(refs.live_bytes(refs.cid, sealed)[0], self._data_bytes(sealed))

    # ------------------------------------------------------------------

    def collect(
        self,
        retained: Sequence[BackupRecipe],
        min_utilization: float = 0.5,
        redirect: Optional[Dict[int, int]] = None,
        rewrite_redirected: bool = False,
    ) -> Tuple[GCReport, List[BackupRecipe]]:
        """Run one mark-and-compact pass.

        Args:
            retained: the recipes that must stay restorable (the
                retention window); everything else is expendable.
            min_utilization: containers with a live fraction strictly
                below this are compacted.
            redirect: optional ``fingerprint -> container`` map naming a
                *preferred* copy of each chunk (maintenance engines:
                RevDedup's freshly written generation, the hybrid's
                canonical old copies). Every retained reference to the
                same fingerprint in a *different* container is repointed
                at the target before liveness is measured, so superseded
                copies read as dead and their containers become
                compactable without being copied. The repoints ride the
                same journaled move map as compaction moves — recovery
                rolls them forward with zero new record kinds.
            rewrite_redirected: force every container that held a
                superseded (redirected-away) copy into the victim set
                regardless of utilization — RevDedup's reverse-reference
                rewrite of old containers. The forced rewrites *purge*
                the stale copies immediately, at the cost of re-copying
                each forced container's remaining live chunks.

        The recipes and ``redirect`` must not name a container the pass
        itself could seal: the open one (end the open backup first) or
        an id the log has yet to hand out. The pass appends to the log,
        so such a name would change meaning halfway through.

        Returns:
            ``(report, remapped_recipes)`` — the retained recipes
            rewritten to reference the post-compaction layout, in the
            same order.
        """
        check_fraction("min_utilization", min_utilization)
        store = self.store
        refs = _References(retained)
        sealed = self._sealed()
        data = self._data_bytes(sealed)
        live, _ = refs.live_bytes(refs.cid, sealed)
        util_before = _utilization(live, data)

        # each live fingerprint's redirect target, where one is sealed
        n_fps = len(refs.fps)
        target = np.zeros(n_fps, dtype=np.int64)
        has_target = np.zeros(n_fps, dtype=bool)
        if redirect:
            keys = np.fromiter(redirect, np.uint64, len(redirect))
            targets = np.fromiter(redirect.values(), np.int64, len(redirect))
            # the keys found among the (sorted, distinct) live fingerprints
            at, found = _locate(keys, refs.fps)
            target[at[found]] = targets[found]
            has_target[at[found]] = True
            has_target &= _locate_ids(target, sealed)[1]
        # pre-moved pairs: references repointed at their target up front
        pre = has_target[refs.fp] & (target[refs.fp] != refs.cid)
        cids = np.where(pre, target[refs.fp], refs.cid)
        if pre.any():
            live, _ = refs.live_bytes(cids, sealed)

        nonempty = data != 0
        ratio = np.divide(live, data, out=np.zeros(len(data)), where=nonempty)
        selected = ratio < min_utilization
        if rewrite_redirected:
            at, found = _locate_ids(refs.cid[pre], sealed)
            selected[at[found]] = True
        victims = sealed[nonempty & selected]
        victim_list = victims.tolist()

        # The pass is two-phase so a crash can roll either direction
        # (journaled stores only; the journal is free-of-charge off):
        #   mark   — persist the victim set (intent) before touching data.
        #   sweep  — copy live chunks to the open log end and seal them;
        #            victims are NOT removed yet, so a crash anywhere in
        #            the sweep rolls back (copies become dead garbage, the
        #            dangling mark record is dropped by recovery).
        #   commit — persist the move map; only then are victims removed
        #            and recipes remapped, atomically with the commit
        #            (recovery rolls an applied-but-interrupted commit
        #            forward from the journal record).
        inj = self._injector()
        gc_ctx = inj.tagged("gc") if inj is not None else _NULL_CTX
        with gc_ctx:
            if store.journaled:
                store.journal_append({"kind": "gc_mark", "victims": list(victim_list)})

            # a superseded copy is reclaimed when its redirect target
            # survives the pass; every other live chunk is copied once
            redirected_ok = has_target & ~_locate_ids(target, victims)[1]
            moved_to = np.full(n_fps, -1, dtype=np.int64)  # fp -> its new copy
            # per victim: the fingerprint ranks of its live chunks, and
            # the container each one now lives in
            swept: List[Tuple[np.ndarray, np.ndarray]] = []
            bytes_reclaimed = 0
            bytes_moved = 0
            for cid in victim_list:
                sealed_container = store.read_container(cid)  # charged read
                rank, is_live = _locate(sealed_container.fingerprints, refs.fps)
                live = np.flatnonzero(is_live)
                rank = rank[live]
                redirected = redirected_ok[rank]
                # the first copy of a live chunk not yet moved is copied;
                # any later copy is a dead duplicate the moved one serves
                copy = np.flatnonzero(~redirected & (moved_to[rank] < 0))
                copied = 0
                if copy.size:
                    copy = copy[_first_occurrences(rank[copy])]
                    fps = refs.fps[rank[copy]].tolist()
                    copy_sizes = sealed_container.sizes[live[copy]].tolist()
                    new_cids = store.append_run(fps, copy_sizes)  # charged on seal
                    moved_to[rank[copy]] = new_cids
                    copied = sum(copy_sizes)
                    if self.index is not None:
                        self._repoint(fps, new_cids)
                bytes_moved += copied
                bytes_reclaimed += int(sealed_container.sizes.sum()) - copied
                swept.append((rank, np.where(redirected, target[rank], moved_to[rank])))
            store.flush()

            # follow the sweep's moves: a pair whose container was a
            # victim takes the new home of its chunk. A redirect target
            # that was itself a victim resolves here too, so every
            # reference lands on a survivor.
            moved = np.zeros(len(cids), dtype=bool)
            if swept:
                cids, moved = _follow(refs.fp, cids, victims, swept)

            if store.journaled:
                store.journal_append(
                    {
                        "kind": "gc_commit",
                        "victims": list(victim_list),
                        "moved": _move_map(refs, pre, cids, victim_list, swept),
                    }
                )
            for cid in victim_list:
                store.remove(cid)

        if pre.any() or any(len(rank) for rank, _ in swept):
            remapped = refs.with_containers(cids)
        else:
            remapped = list(retained)
        sealed_after = self._sealed()
        live_after, _ = refs.live_bytes(cids, sealed_after, moved)
        util_after = _utilization(live_after, self._data_bytes(sealed_after))
        report = GCReport(
            containers_examined=len(sealed),
            containers_collected=len(victim_list),
            bytes_reclaimed=bytes_reclaimed,
            bytes_moved=bytes_moved,
            remapped_recipes=len(remapped),
            utilization_before=util_before,
            utilization_after=util_after,
            redirected_chunks=int(pre.sum()),
        )
        self._record(report)
        return report, remapped

    def _repoint(self, fps: List[int], cids: List[int]) -> None:
        """Point the index at the moved copies (keeping each entry's
        segment id)."""
        from repro.index.full_index import ChunkLocation

        sids = [-1 if old is None else old.sid for old in self.index.peek_many(fps)]
        pairs = list(zip(cids, sids))
        # one location object per distinct (container, segment): a run
        # of moved chunks shares a handful
        homes = {pair: ChunkLocation(*pair) for pair in set(pairs)}
        self.index.update_many(fps, list(map(homes.__getitem__, pairs)))

    def _record(self, report: GCReport) -> None:
        """Feed the ambient observability session (no-op when disabled)."""
        from repro.obs import FRACTION_EDGES, get_active

        obs = get_active()
        if not obs.enabled:
            return
        reg = obs.registry
        reg.counter("gc.passes").inc()
        reg.counter("gc.containers_collected").inc(report.containers_collected)
        reg.counter("gc.bytes_reclaimed").inc(report.bytes_reclaimed)
        reg.counter("gc.bytes_moved").inc(report.bytes_moved)
        if report.redirected_chunks:
            reg.counter("gc.redirected_chunks").inc(report.redirected_chunks)
        reg.histogram("gc.utilization_before", FRACTION_EDGES).observe(
            report.utilization_before
        )
        if obs.events.enabled:
            obs.events.emit(
                "gc_pass",
                containers_examined=report.containers_examined,
                containers_collected=report.containers_collected,
                bytes_reclaimed=report.bytes_reclaimed,
                bytes_moved=report.bytes_moved,
                utilization_before=report.utilization_before,
                utilization_after=report.utilization_after,
            )


def _locate(values: np.ndarray, sorted_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Position of each value in the sorted array ``sorted_ids``, and
    whether it is there (positions of absent values are meaningless)."""
    pos = np.searchsorted(sorted_ids, values)
    found = pos < len(sorted_ids)
    found[found] = sorted_ids[pos[found]] == values[found]
    return pos, found


def _locate_ids(ids: np.ndarray, sorted_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_locate` for container ids (small integers): one gather
    from a table over their range instead of a binary search per id
    (a branchy search is most of a pass's cost at this size). Absent ids
    get position -1. Falls back to the search when the ids are too
    sparse for a table."""
    if not len(ids) or not len(sorted_ids):
        return np.full(len(ids), -1, dtype=np.int64), np.zeros(len(ids), dtype=bool)
    lo = min(int(ids.min()), int(sorted_ids[0]))
    span = max(int(ids.max()), int(sorted_ids[-1])) - lo + 1
    if span > 16 * (len(ids) + len(sorted_ids)) + 4096:
        return _locate(ids, sorted_ids)
    table = np.full(span, -1, dtype=np.int64)
    table[sorted_ids - lo] = np.arange(len(sorted_ids))
    pos = table[ids - lo]
    return pos, pos >= 0


def _first_occurrences(values: np.ndarray) -> np.ndarray:
    """Positions of the first occurrence of each distinct value, in
    order (all positions when the values are distinct, the usual case)."""
    ordered = np.sort(values)
    if not (ordered[1:] == ordered[:-1]).any():
        return np.arange(len(values))
    return np.sort(np.unique(values, return_index=True)[1])


def _utilization(live: np.ndarray, data: np.ndarray) -> float:
    """Live fraction of a log with ``data`` payload bytes per container."""
    total = int(data.sum())
    return int(live.sum()) / total if total else 1.0


class _References:
    """The chunk references of the retained recipes, concatenated once
    and sorted once by ``(fingerprint, container)`` into a table of
    distinct pairs.

    A remap rewrites a pair's container and every reference of that pair
    follows it, so references match ``(fingerprint, container)`` exactly
    by construction.
    """

    def __init__(self, retained: Sequence[BackupRecipe]) -> None:
        self.recipes = list(retained)
        fps = np.concatenate(
            [r.fingerprints for r in self.recipes] or [[]], dtype=np.uint64, casting="unsafe"
        )
        cids = np.concatenate(
            [r.containers for r in self.recipes] or [[]], dtype=np.int64, casting="unsafe"
        )
        #: size of every reference, in recipe order
        self.sizes = np.concatenate(
            [r.sizes for r in self.recipes] or [[]], dtype=np.int64, casting="unsafe"
        )
        n = len(fps)
        # the stable order by (fingerprint, container): sort by
        # fingerprint, then put each fingerprint's references in
        # (container, position) order. The key for that second sort is
        # one exact mixed-radix number that is already sorted but within
        # a fingerprint, so a stable sort finishes it in a near-linear pass.
        by_fp = np.argsort(fps)
        fps = fps[by_fp]
        new_fp = np.ones(n, dtype=bool)
        new_fp[1:] = fps[1:] != fps[:-1]
        rank = np.cumsum(new_fp) - 1
        digit = cids[by_fp] - (cids.min() if n else 0)
        span = int(digit.max()) + 1 if n else 1
        if (int(rank[-1]) + 1 if n else 1) * span * n < 1 << 63:
            within = np.argsort((rank * span + digit) * n + by_fp, kind="stable")
        else:
            within = np.lexsort((by_fp, digit, rank))
        order = by_fp[within]
        cids = cids[order]
        new_pair = new_fp.copy()
        new_pair[1:] |= cids[1:] != cids[:-1]
        ends_pair = np.ones(n, dtype=bool)
        ends_pair[:-1] = new_pair[1:]
        # (positions, not boolean masks: a gather is several times cheaper)
        starts = np.flatnonzero(new_pair)
        #: the sorted distinct fingerprints (the live set)
        self.fps = fps[np.flatnonzero(new_fp)]
        # per pair: its fingerprint's rank in self.fps, its container,
        # and its first and last reference
        self.fp = rank[starts]
        self.cid = cids[starts]
        self.first = order[starts]
        self.last = order[np.flatnonzero(ends_pair)]
        self._order = order
        self._new_pair = new_pair

    @cached_property
    def pair(self) -> np.ndarray:
        """The pair of every reference, in recipe order (only a remap
        needs it)."""
        pair = np.empty(len(self._order), dtype=np.int64)
        pair[self._order] = np.cumsum(self._new_pair) - 1
        return pair

    def live_bytes(
        self, cids: np.ndarray, sealed: np.ndarray, moved: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Mark: the live payload bytes of each container in ``sealed``
        when pair ``i`` references container ``cids[i]``, and whether any
        pair references it. A fingerprint counts once per container, at
        the size of its last reference into a sealed container.

        Pairs merged by a remap must sit next to each other, except those
        flagged in ``moved``: the sweep sent them to containers it wrote,
        which no other pair references, so they are deduplicated on
        their own.
        """
        n = len(sealed)
        pos, found = _locate_ids(cids, sealed)
        pairs = np.flatnonzero(found)
        fp = self.fp[pairs]
        last = np.full(len(self.fps), -1, dtype=np.int64)
        np.maximum.at(last, fp, self.last[pairs])
        # (fingerprint, container) as one exact mixed-radix key, not a hash
        key = fp * n + pos[pairs]
        if moved is not None:
            # the moved pairs sort apart, after the others
            went = moved[pairs]
            key = np.concatenate([key[~went], np.sort(key[went])])
        distinct = np.ones(len(key), dtype=bool)
        distinct[1:] = key[1:] != key[:-1]
        fp, pos = np.divmod(key[np.flatnonzero(distinct)], max(n, 1))
        live = np.bincount(pos, weights=self.sizes[last[fp]], minlength=n)
        return live.astype(np.int64), np.bincount(pos, minlength=n) > 0

    def with_containers(self, cids: np.ndarray) -> List[BackupRecipe]:
        """The retained recipes, each reference moved to its pair's
        container in ``cids``."""
        rows = cids[self.pair]
        out = []
        start = 0
        for r in self.recipes:
            stop = start + r.n_chunks
            out.append(
                BackupRecipe(
                    generation=r.generation,
                    fingerprints=r.fingerprints,
                    sizes=r.sizes,
                    containers=rows[start:stop].astype(r.containers.dtype),
                    label=r.label,
                )
            )
            start = stop
        return out


#: a ``(fingerprint, container)`` pair as one sortable record
_PAIR = np.dtype([("fp", np.uint64), ("cid", np.int64)])


def remap_recipes(
    recipes: Sequence[BackupRecipe], moved: Dict[Tuple[int, int], int]
) -> List[BackupRecipe]:
    """Apply a move map ``(fingerprint, old cid) -> new cid`` (a
    journaled ``gc_commit`` record) to ``recipes``.

    A reference moves only when both its fingerprint and its container
    match a key: the keys are sorted as ``(fingerprint, container)``
    records and each distinct reference pair is found by binary search.
    With no moves the recipes come back unchanged, as the same objects.
    """
    if not moved:
        return list(recipes)
    keys = np.empty(len(moved), dtype=_PAIR)
    keys["fp"] = np.fromiter((fp for fp, _ in moved), np.uint64, len(moved))
    keys["cid"] = np.fromiter((cid for _, cid in moved), np.int64, len(moved))
    new = np.fromiter(moved.values(), np.int64, len(moved))
    order = np.lexsort((keys["cid"], keys["fp"]))
    keys, new = keys[order], new[order]
    refs = _References(recipes)
    pairs = np.empty(len(refs.cid), dtype=_PAIR)
    pairs["fp"] = refs.fps[refs.fp]
    pairs["cid"] = refs.cid
    pos, hit = _locate(pairs, keys)
    cids = refs.cid.copy()
    cids[hit] = new[pos[hit]]
    return refs.with_containers(cids)


def _follow(
    fp: np.ndarray,
    cids: np.ndarray,
    victims: np.ndarray,
    swept: List[Tuple[np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Send each pair ``(fp[i], cids[i])`` the sweep moved to its chunk's
    new container. ``swept`` holds, per victim, the fingerprint ranks of
    its live chunks and where each went. Returns the new containers and
    which pairs moved."""
    n = len(victims)
    # (fingerprint, victim) as one exact mixed-radix key, not a hash
    key = np.concatenate([rank * n + i for i, (rank, _) in enumerate(swept)])
    homes = np.concatenate([home for _, home in swept])
    # a chunk held twice by one victim has one home: any copy answers
    order = np.argsort(key)
    key, homes = key[order], homes[order]
    at, moved = _locate_ids(cids, victims)
    pairs = np.flatnonzero(moved)
    pos, found = _locate(fp[pairs] * n + at[pairs], key)
    moved[pairs] = found
    cids = cids.copy()
    cids[pairs[found]] = homes[pos[found]]
    return cids, moved


def _move_map(
    refs: _References,
    pre: np.ndarray,
    cids: np.ndarray,
    victims: List[int],
    swept: List[Tuple[np.ndarray, np.ndarray]],
) -> Dict[Tuple[int, int], int]:
    """The journaled move map ``(fingerprint, old cid) -> new cid``: the
    redirect repoints in first-reference order, each resolved to its
    final container, then the sweep's moves in sweep order."""
    pairs = np.flatnonzero(pre)
    pairs = pairs[np.argsort(refs.first[pairs])]
    keys = zip(refs.fps[refs.fp[pairs]].tolist(), refs.cid[pairs].tolist())
    moved = dict(zip(keys, cids[pairs].tolist()))
    for victim, (rank, home) in zip(victims, swept):
        moved.update(zip(zip(refs.fps[rank].tolist(), [victim] * len(rank)), home.tolist()))
    return moved
