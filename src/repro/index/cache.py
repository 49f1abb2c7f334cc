"""RAM caches: a generic LRU and the locality-preserving prefetch cache.

``FingerprintPrefetchCache`` is the mechanism the paper's throughput
argument revolves around: on an on-disk index hit, DDFS prefetches the
*whole metadata section* of the container holding the duplicate, betting
that the following stream chunks are duplicates stored nearby. When
placement de-linearizes, that bet pays off less and less — each prefetch
serves fewer subsequent chunks, page faults multiply, throughput falls
(Fig. 2). The cache makes that effect measurable: it reports hits per
inserted unit.

The cache sits on every write, so its upkeep must stay cheap: a prefetch
or an eviction costs O(1) per unit, and a unit's fingerprints are turned
into dict keys once per unit id, not once per prefetch (units are
immutable). Attribution is answered from upsert sequence numbers; see
:class:`FingerprintPrefetchCache`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Dict, Hashable, Iterable, Optional

import numpy as np

from repro._util import check_positive


class LRUCache:
    """Minimal LRU map with a fixed entry capacity."""

    def __init__(self, capacity: int) -> None:
        check_positive("capacity", capacity)
        self.capacity = int(capacity)
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> Optional[Any]:
        """Return the cached value (refreshing recency) or None."""
        if key in self._data:
            self._data.move_to_end(key)
            self.hits += 1
            return self._data[key]
        self.misses += 1
        return None

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/overwrite, evicting the least recently used entry."""
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)


@dataclass
class PrefetchCacheStats:
    """Hit/miss accounting for the prefetch cache."""

    lookups: int = 0
    hits: int = 0
    units_inserted: int = 0
    units_evicted: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def hits_per_unit(self) -> float:
        """Average RAM hits bought by one prefetched unit — the direct
        measure of duplicate locality the paper discusses."""
        return self.hits / self.units_inserted if self.units_inserted else 0.0



#: registry marker for a fingerprint several units hold (uids are >= 0)
_SHARED = -2


class FingerprintPrefetchCache:
    """LRU cache of prefetched metadata *units* (containers or blocks).

    A unit is an id plus the array of fingerprints it holds. Lookups map a
    fingerprint to the unit that supplied it (refreshing that unit's
    recency); inserting past capacity evicts whole units.

    **Sequence attribution.** Units are immutable (sealed containers,
    sealed blocks, stored manifests), so each unit's fingerprints are
    registered once per uid: a fingerprint held by one unit maps to that
    uid, one held by several to the tuple of its holders. Per uid the
    cache keeps two ints: the sequence number of its last *upsert* (an
    insert, or a re-prefetch of a cached unit) and whether it is cached.
    ``lookup(fp)`` answers the holder with the greatest upsert sequence
    if that holder is cached, and a miss otherwise.

    That is exactly the attribution of an eagerly maintained ``fp -> uid``
    map in which every upsert points the unit's fingerprints at it
    (dict-update semantics: the last upserter steals shared fingerprints)
    and every eviction unmaps the fingerprints still attributed to the
    evicted unit. By induction, such a map holds ``fp -> last upserter``
    until that upserter is evicted, and nothing until another holder is
    upserted again. Here an upsert or an eviction touches only the unit's
    own two ints, never its fingerprints. The eager map is kept as the
    executable specification in ``tests/oracle/prefetch_cache_oracle.py``.

    The registry holds ints (and holder tuples of ints) only — no unit
    array outlives the call that inserted it. Reusing a uid for different
    contents raises :class:`ValueError`.

    Args:
        capacity_units: number of units held (DDFS caches on the order of
            hundreds of container metadata sections).
    """

    def __init__(self, capacity_units: int) -> None:
        check_positive("capacity_units", capacity_units)
        self.capacity_units = int(capacity_units)
        # cached uids in LRU order
        self._units: "OrderedDict[int, None]" = OrderedDict()
        # cached uid -> itself, plus _SHARED -> _SHARED: a batch lookup
        # maps registry entries through it in one pass
        self._live: Dict[int, int] = {_SHARED: _SHARED}
        # fingerprint -> its one holder's uid, or _SHARED when several
        # units hold it; those map to the tuple of their holders'
        # uids (in registration order) in _shared
        self._holders: Dict[int, int] = {}
        self._shared: Dict[int, tuple] = {}
        # per registered uid: sequence number of its last upsert, and its
        # fingerprint count and content hash (for on_evict and the
        # reused-uid check)
        self._seq: Dict[int, int] = {}
        self._size: Dict[int, int] = {}
        self._digest: Dict[int, int] = {}
        self._clock = 0
        self.stats = PrefetchCacheStats()
        # optional (uid, n_fingerprints) eviction callback, wired by the
        # observability layer when event tracing is on
        self.on_evict = None
        # bound LRU recency refresh for batch walks: semantically one
        # consumed cache hit minus its stats, which the walk accounts in
        # bulk via count_hits/count_probes (zero wrapper overhead on the
        # per-hit path; the OrderedDict object survives clear())
        self.touch_unit = self._units.move_to_end

    def __contains__(self, fp: int) -> bool:
        return self._resolve(int(fp)) >= 0

    def __len__(self) -> int:
        return len(self._units)

    def _resolve(self, fp: int) -> int:
        """The unit covering ``fp``: its last-upserted holder if that
        holder is cached, else -1."""
        uid = self._live.get(self._holders.get(fp), -1)
        if uid == _SHARED:
            uid = self._resolve_shared(fp)
        return uid

    def _resolve_shared(self, fp: int) -> int:
        last = max(self._shared[fp], key=self._seq.__getitem__)
        return self._live.get(last, -1)

    def lookup(self, fp: int) -> Optional[int]:
        """Return the unit id whose prefetch covers ``fp``, or None."""
        self.stats.lookups += 1
        uid = self._resolve(int(fp))
        if uid < 0:
            return None
        self._units.move_to_end(uid)
        self.stats.hits += 1
        return uid

    # -- batch interface ------------------------------------------------

    def lookup_list(self, keys: list) -> list:
        """:meth:`lookup_many` for a list of native ints, answered as a
        list (the form the engines' per-chunk walks consume)."""
        out = list(map(self._live.get, map(self._holders.get, keys), repeat(-1)))
        i = -1
        for _ in range(out.count(_SHARED)):
            i = out.index(_SHARED, i + 1)
            out[i] = self._resolve_shared(keys[i])
        return out

    def lookup_many(self, fps) -> np.ndarray:
        """Batched membership: the unit id covering each fingerprint,
        or -1. Accepts an array or a list of native ints (callers holding
        a ``.tolist()`` of the segment pass it to skip reconversion).
        Pure — no stats, no recency refresh; batch callers account
        consumed probes via :meth:`touch` / :meth:`count_probes` so the
        scalar and batch paths meter identically."""
        keys = fps.tolist() if isinstance(fps, np.ndarray) else fps
        return np.fromiter(self.lookup_list(keys), dtype=np.int64, count=len(keys))

    def touch(self, uid: int) -> None:
        """Account one consumed cache hit: recency refresh + hit count
        (the batch-path equivalent of a successful :meth:`lookup`)."""
        self._units.move_to_end(uid)
        self.stats.hits += 1

    def count_hits(self, n: int) -> None:
        """Account ``n`` consumed cache hits whose recency refreshes were
        already applied one by one via :attr:`touch_unit`."""
        self.stats.hits += int(n)

    def count_probes(self, n: int) -> None:
        """Account ``n`` consumed membership probes (hits and misses)."""
        self.stats.lookups += int(n)

    # -- unit maintenance -----------------------------------------------

    def has_unit(self, uid: int) -> bool:
        """True if unit ``uid`` is currently cached (no recency change)."""
        return uid in self._units

    def _register(self, uid: int, fps: np.ndarray) -> None:
        """Map a unit's fingerprints to it once, or check that a
        registered uid still names the same contents."""
        if uid < 0:
            raise ValueError(f"unit ids must be >= 0, got {uid}")
        digest = hash(fps.tobytes())
        known = self._digest.get(uid)
        if known is not None:
            if known != digest or self._size[uid] != len(fps):
                raise ValueError(f"unit {uid} reused with different contents")
            return
        self._digest[uid] = digest
        self._size[uid] = len(fps)
        keys = fps.tolist()
        holders = self._holders
        prior = list(map(holders.get, keys))
        holders.update(zip(keys, repeat(uid)))
        if prior.count(None) == len(prior):
            return
        # fingerprints other units already hold: keep every holder (a
        # fingerprint repeated within the unit is added once)
        shared = self._shared
        for f, h in zip(keys, prior):
            if h is None:
                continue
            holders[f] = _SHARED
            if h != _SHARED:
                shared[f] = (h, uid)
            elif shared[f][-1] != uid:
                shared[f] += (uid,)

    def _upsert(self, uid: int, fps: "np.ndarray | Iterable[int]") -> None:
        """Insert or re-prefetch one unit, without evicting."""
        uid = int(uid)
        self._register(uid, np.asarray(fps, dtype=np.uint64))
        self._clock += 1
        self._seq[uid] = self._clock
        if uid in self._units:
            self._units.move_to_end(uid)
            return
        self._units[uid] = None
        self._live[uid] = uid
        self.stats.units_inserted += 1

    def _evict_past_capacity(self) -> None:
        units = self._units
        while len(units) > self.capacity_units:
            old_uid = units.popitem(last=False)[0]
            del self._live[old_uid]
            self.stats.units_evicted += 1
            if self.on_evict is not None:
                self.on_evict(old_uid, self._size[old_uid])

    def insert_unit(self, uid: int, fps: "np.ndarray | Iterable[int]") -> None:
        """Cache a prefetched unit, evicting LRU units past capacity.

        Re-prefetching a cached unit refreshes its recency and makes it
        the last upserter of its fingerprints again (a newer holder may
        have taken them and been evicted since)."""
        self._upsert(uid, fps)
        self._evict_past_capacity()

    def insert_units(self, units: "list[tuple[int, np.ndarray]]") -> None:
        """Cache a *run* of prefetched units in order.

        Equivalent to ``insert_unit(uid, fps)`` per pair: upserts in run
        order make the last unit of the run holding a fingerprint its
        attribution, and deferring the evictions to the end pops the same
        least-recent units — nothing observes the cache between the
        inserts."""
        for uid, fps in units:
            self._upsert(uid, fps)
        self._evict_past_capacity()

    def clear(self) -> None:
        """Drop all cached units and the registry (e.g. between
        independent streams)."""
        self._units.clear()
        self._live = {_SHARED: _SHARED}
        self._holders.clear()
        self._shared.clear()
        self._seq.clear()
        self._size.clear()
        self._digest.clear()
