"""The sharded fingerprint index behind the ``DiskChunkIndex`` contract.

``ShardedChunkIndex`` partitions the fingerprint space across N
:class:`~repro.index.full_index.DiskChunkIndex` shards with a
:class:`~repro.sharding.router.ShardRouter` and re-presents the whole
ensemble through the exact interface engines already consume — lookups,
batched lookups, inserts/updates, the out-of-line sorted sweep, the
journaled flush/crash/recovery cycle, ``peek``/``__contains__``, and a
live aggregated :class:`~repro.index.full_index.IndexStats`.

Contract highlights:

* **1-shard degeneracy** — with one shard every call is delegated
  verbatim to a single ``DiskChunkIndex`` built with identical
  parameters, so results (clock, stats, goldens) are byte-identical to
  the unsharded substrate. The property suite
  (``tests/properties/test_shard_equivalence.py``) and the CI shard
  twin-run smoke pin this.
* **answer equivalence at N shards** — dedup *decisions* depend only on
  the fingerprint → location map, which sharding partitions without
  loss; recipes, store contents, and dedup ratios are identical for any
  shard count (page-fault counts and simulated clock may differ — each
  shard has its own bucket file and page cache).
* **one live stats object** — all shards share the wrapper's
  ``IndexStats`` instance, so long-lived observers (obs spans hold a
  reference and read deltas) see exact ensemble counters with zero
  aggregation cost.
* **crash discipline** — every shard is journaled together; ``flush``
  flushes shards in shard order under the injector tag ``"shard"`` (the
  chaos sweep's new crash class), ``crash`` rolls every shard back to
  its last durable flush, and ``load_recovered`` re-partitions a
  recovery-scanner rebuild across the ring.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro._util import KIB
from repro.index.full_index import ChunkLocation, DiskChunkIndex, IndexStats
from repro.sharding.router import ShardRouter

__all__ = ["ShardedChunkIndex"]


class _RoutedMapView:
    """Read-only dict-like view over the shards' maps.

    Engines use ``index._map.get`` as a free peek fast path (DDFS's
    batch ladder); this view keeps that idiom working by routing each
    probe to the owning shard.
    """

    __slots__ = ("_router", "_shards")

    def __init__(self, router: ShardRouter, shards: Sequence[DiskChunkIndex]):
        self._router = router
        self._shards = shards

    def get(self, fp, default=None):
        return self._shards[self._router.shard_of(int(fp))]._map.get(
            int(fp), default
        )

    def __contains__(self, fp) -> bool:
        return int(fp) in self._shards[self._router.shard_of(int(fp))]._map

    def __len__(self) -> int:
        return sum(len(s._map) for s in self._shards)

    def items(self):
        for shard in self._shards:
            yield from shard._map.items()


class ShardedChunkIndex:
    """N ``DiskChunkIndex`` shards behind the single-index interface."""

    def __init__(
        self,
        shards: Sequence[DiskChunkIndex],
        router: ShardRouter,
        obs_prefix: str = "shard",
    ) -> None:
        if len(shards) != router.n_shards:
            raise ValueError(
                f"{len(shards)} shards for a {router.n_shards}-shard router"
            )
        self.shards = list(shards)
        self.router = router
        self.n_shards = router.n_shards
        first = self.shards[0]
        self.disk = first.disk
        self.page_bytes = first.page_bytes
        self.entry_bytes = first.entry_bytes
        self._inj = first._inj
        # one live stats object for the whole ensemble: shards increment
        # the wrapper's counters directly, so observers holding the
        # stats reference (obs spans) read exact aggregates
        self.stats: IndexStats = first.stats
        for shard in self.shards[1:]:
            shard.stats = self.stats
        if self.n_shards == 1:
            self._map = first._map
        else:
            self._map = _RoutedMapView(router, self.shards)
        self._obs_prefix = obs_prefix

    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        disk,
        n_shards: int,
        expected_entries: int = 1_000_000,
        page_bytes: int = 4 * KIB,
        entry_bytes: int = 40,
        page_cache_pages: int = 256,
        journaled: bool = False,
        retry=None,
        vnodes: int = 128,
    ) -> "ShardedChunkIndex":
        """Build N equal shards over one disk.

        Capacity and page cache are divided across shards (ceiling
        division, so 1 shard reproduces the unsharded sizing exactly and
        N shards never under-provision the ensemble).
        """
        router = ShardRouter(n_shards, vnodes=vnodes)
        per_entries = -(-int(expected_entries) // n_shards)
        per_cache = (
            -(-int(page_cache_pages) // n_shards) if page_cache_pages > 0 else 0
        )
        shards = [
            DiskChunkIndex(
                disk,
                expected_entries=per_entries,
                page_bytes=page_bytes,
                entry_bytes=entry_bytes,
                page_cache_pages=per_cache,
                journaled=journaled,
                retry=retry,
            )
            for _ in range(n_shards)
        ]
        return cls(shards, router)

    # -- bookkeeping -----------------------------------------------------

    def __len__(self) -> int:
        return sum(len(s) for s in self.shards)

    def __contains__(self, fp: int) -> bool:
        return int(fp) in self.shards[self.router.shard_of(int(fp))]._map

    @property
    def n_pages(self) -> int:
        return sum(s.n_pages for s in self.shards)

    def page_of(self, fp: int) -> int:
        """Stable ensemble-wide page id: the owning shard's page, offset
        by the pages of the shards before it."""
        fp = int(fp)
        shard = self.router.shard_of(fp)
        base = sum(s.n_pages for s in self.shards[:shard])
        return base + self.shards[shard].page_of(fp)

    def shard_fill(self) -> List[int]:
        """Entries per shard (the balance diagnostic obs exports)."""
        return [len(s) for s in self.shards]

    @property
    def disk_bytes(self) -> int:
        return sum(s.disk_bytes for s in self.shards)

    def peek(self, fp: int) -> Optional[ChunkLocation]:
        return self.shards[self.router.shard_of(int(fp))].peek(fp)

    def peek_many(self, fps) -> List[Optional[ChunkLocation]]:
        if isinstance(fps, np.ndarray):
            fps = fps.tolist()
        return list(map(self._map.get, fps))

    # -- obs (twin-run contract: counters only, never behavior) ----------

    def _record_obs(self, lookups: int = 0, inserts: int = 0) -> None:
        from repro.obs import get_active

        obs = get_active()
        if not obs.enabled:
            return
        p = self._obs_prefix
        reg = obs.registry
        reg.counter(f"{p}.batches").inc()
        if lookups:
            reg.counter(f"{p}.routed_lookups").inc(lookups)
        if inserts:
            reg.counter(f"{p}.routed_inserts").inc(inserts)
        reg.gauge(f"{p}.n_shards").set(self.n_shards)
        reg.gauge(f"{p}.fill_balance").set(
            self.router.fill_balance(self.shard_fill())
        )

    # -- lookups ---------------------------------------------------------

    def lookup(self, fp: int) -> Optional[ChunkLocation]:
        return self.shards[self.router.shard_of(int(fp))].lookup(fp)

    def lookup_many(self, fps) -> List[Optional[ChunkLocation]]:
        """Batched lookup: partition by shard, drive each shard's
        in-order batch once (shard-id order, deterministically), then
        scatter the answers back to input order."""
        if self.n_shards == 1:
            return self.shards[0].lookup_many(fps)
        if isinstance(fps, np.ndarray):
            fps = fps.tolist()
        parts = self.router.partition(fps)
        out: List[Optional[ChunkLocation]] = [None] * len(fps)
        for shard_id in sorted(parts):
            positions, shard_fps = parts[shard_id]
            for pos, loc in zip(
                positions, self.shards[shard_id].lookup_many(shard_fps)
            ):
                out[pos] = loc
        self._record_obs(lookups=len(fps))
        return out

    def lookup_batch_sorted(self, fps) -> List[Optional[ChunkLocation]]:
        """Out-of-line sorted sweep, shard by shard: each shard with
        work pays its own one-scan charge (the ensemble never sweeps a
        shard the batch does not touch)."""
        if self.n_shards == 1:
            return self.shards[0].lookup_batch_sorted(fps)
        if isinstance(fps, np.ndarray):
            fps = fps.tolist()
        parts = self.router.partition(fps)
        out: List[Optional[ChunkLocation]] = [None] * len(fps)
        for shard_id in sorted(parts):
            positions, shard_fps = parts[shard_id]
            for pos, loc in zip(
                positions, self.shards[shard_id].lookup_batch_sorted(shard_fps)
            ):
                out[pos] = loc
        return out

    # -- writes ----------------------------------------------------------

    def insert(self, fp: int, location: ChunkLocation) -> None:
        self.shards[self.router.shard_of(int(fp))].insert(fp, location)

    def insert_many(self, fps, locations) -> None:
        if self.n_shards == 1:
            self.shards[0].insert_many(fps, locations)
            return
        parts = self.router.partition(list(fps))
        locations = list(locations)
        for shard_id in sorted(parts):
            positions, shard_fps = parts[shard_id]
            self.shards[shard_id].insert_many(
                shard_fps, [locations[p] for p in positions]
            )
        self._record_obs(inserts=len(locations))

    def update(self, fp: int, location: ChunkLocation) -> None:
        self.shards[self.router.shard_of(int(fp))].update(fp, location)

    def update_many(self, fps, locations) -> None:
        if self.n_shards == 1:
            self.shards[0].update_many(fps, locations)
            return
        parts = self.router.partition(list(fps))
        locations = list(locations)
        for shard_id in sorted(parts):
            positions, shard_fps = parts[shard_id]
            self.shards[shard_id].update_many(
                shard_fps, [locations[p] for p in positions]
            )

    def upsert_many(self, fps, locations) -> None:
        """Per-shard ``upsert_many`` in shard order: each shard sees its
        own pairs in input order, so its counts and journal match
        sequential ``insert``/``update`` calls."""
        if self.n_shards == 1:
            self.shards[0].upsert_many(fps, locations)
            return
        parts = self.router.partition(fps)
        for shard_id in sorted(parts):
            positions, shard_fps = parts[shard_id]
            self.shards[shard_id].upsert_many(
                shard_fps, [locations[p] for p in positions]
            )

    # -- durability ------------------------------------------------------

    def flush(self) -> int:
        """Flush every shard, in shard order, each under the injector
        tag ``"shard"`` (nested over the shard's own ``"index_flush"``
        tag) so chaos crash points can land mid-shard-flush — after some
        shards are durable and before others are."""
        total = 0
        for shard in self.shards:
            if self._inj is not None and self.n_shards > 1:
                with self._inj.tagged("shard"):
                    total += shard.flush()
            else:
                total += shard.flush()
        return total

    def crash(self) -> None:
        for shard in self.shards:
            shard.crash()

    def load_recovered(self, entries: Dict[int, ChunkLocation]) -> int:
        """Re-partition a recovery rebuild across the ring."""
        if self.n_shards == 1:
            return self.shards[0].load_recovered(entries)
        fps = list(entries)
        parts = self.router.partition(fps)
        total = 0
        for shard_id in range(self.n_shards):
            positions, shard_fps = parts.get(shard_id, ([], []))
            total += self.shards[shard_id].load_recovered(
                {fp: entries[fp] for fp in shard_fps}
            )
        return total
