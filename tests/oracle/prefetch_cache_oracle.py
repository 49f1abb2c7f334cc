"""Reference prefetch cache: the eagerly maintained fingerprint map.

An executable specification of
:class:`repro.index.cache.FingerprintPrefetchCache`. This cache keeps a
plain ``fp -> uid`` dict up to date on every unit insert and eviction:
an upsert points each of the unit's fingerprints at it (stealing them
from earlier holders), and an eviction deletes the fingerprints still
attributed to the evicted unit, one key at a time. The product cache
answers the same questions from upsert sequence numbers instead; the
property suite in ``tests/index/test_cache_oracle.py`` drives both with
the same random operation sequences and requires identical answers,
stats, lengths and eviction callbacks.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import repeat
from typing import Dict, Iterable, Optional

import numpy as np

from repro._util import check_positive
from repro.index.cache import PrefetchCacheStats


class OraclePrefetchCache:
    """LRU cache of prefetched units with an eager ``fp -> uid`` map.

    Ties between units holding the same fingerprint resolve to the most
    recently upserted one (dict-update semantics); an evicted unit's
    fingerprints are unmapped only where it still holds the attribution.
    """

    def __init__(self, capacity_units: int) -> None:
        check_positive("capacity_units", capacity_units)
        self.capacity_units = int(capacity_units)
        self._units: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._map: Dict[int, int] = {}
        self.stats = PrefetchCacheStats()
        self.on_evict = None
        self.touch_unit = self._units.move_to_end

    def __contains__(self, fp: int) -> bool:
        return int(fp) in self._map

    def __len__(self) -> int:
        return len(self._units)

    def lookup(self, fp: int) -> Optional[int]:
        self.stats.lookups += 1
        uid = self._map.get(int(fp))
        if uid is None:
            return None
        self._units.move_to_end(uid)
        self.stats.hits += 1
        return uid

    def lookup_many(self, fps) -> np.ndarray:
        keys = fps.tolist() if isinstance(fps, np.ndarray) else [int(f) for f in fps]
        return np.fromiter(
            map(self._map.get, keys, repeat(-1)), dtype=np.int64, count=len(keys)
        )

    def touch(self, uid: int) -> None:
        self._units.move_to_end(uid)
        self.stats.hits += 1

    def count_hits(self, n: int) -> None:
        self.stats.hits += int(n)

    def count_probes(self, n: int) -> None:
        self.stats.lookups += int(n)

    def has_unit(self, uid: int) -> bool:
        return uid in self._units

    def _upsert(self, uid: int, fps: np.ndarray) -> None:
        self._map.update(zip(fps.tolist(), repeat(uid)))

    def _evict_past_capacity(self) -> None:
        m = self._map
        while len(self._units) > self.capacity_units:
            old_uid, old_fps = self._units.popitem(last=False)
            self.stats.units_evicted += 1
            for f in old_fps.tolist():
                if m.get(f) == old_uid:
                    del m[f]
            if self.on_evict is not None:
                self.on_evict(old_uid, len(old_fps))

    def _insert(self, uid: int, fps: "np.ndarray | Iterable[int]") -> None:
        fps = np.asarray(fps, dtype=np.uint64)
        uid = int(uid)
        if uid in self._units:
            # re-prefetch: refresh recency and re-register its fingerprints
            self._units.move_to_end(uid)
            self._upsert(uid, self._units[uid])
            return
        self._units[uid] = fps
        self._upsert(uid, fps)
        self.stats.units_inserted += 1

    def insert_unit(self, uid: int, fps: "np.ndarray | Iterable[int]") -> None:
        self._insert(uid, fps)
        self._evict_past_capacity()

    def insert_units(self, units) -> None:
        for uid, fps in units:
            self._insert(uid, fps)
        self._evict_past_capacity()

    def clear(self) -> None:
        self._units.clear()
        self._map.clear()
