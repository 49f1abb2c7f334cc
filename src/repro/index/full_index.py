"""The on-disk full chunk index.

The authoritative fingerprint → location map. It is hash-bucketed on
disk; a lookup that misses the small RAM page cache costs one random
read (seek + bucket page transfer) — the paper's "fetch the chunk index
from disk to RAM page by page" bottleneck.

Inserts are buffered and merged in batch (as DDFS does), so they carry no
per-chunk disk charge here; their amortized cost is folded into the
engine's per-chunk CPU constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from repro._util import KIB, check_positive
from repro.index.cache import LRUCache
from repro.storage.disk import DiskModel


class ChunkLocation(NamedTuple):
    """Where a stored chunk lives.

    Attributes:
        cid: container id holding the physical copy.
        sid: stored-segment id the copy was written under (the identity of
            ``Seg_k`` in the paper's SPL definition).
    """

    cid: int
    sid: int


@dataclass
class IndexStats:
    """Cumulative index-access accounting.

    ``negative_lookups`` counts lookups that found no entry — each one
    still paid for its bucket page like any other lookup (absence is only
    proven by reading the bucket), so the counter makes the
    negative-lookup asymmetry directly observable and lets the batched
    and scalar ingest paths be compared on it.
    """

    lookups: int = 0
    page_faults: int = 0
    page_hits: int = 0
    inserts: int = 0
    updates: int = 0
    negative_lookups: int = 0
    flushes: int = 0
    entries_flushed: int = 0
    sweeps: int = 0
    sweep_pages: int = 0

    @property
    def fault_rate(self) -> float:
        """Fraction of lookups that went to disk."""
        return self.page_faults / self.lookups if self.lookups else 0.0


class DiskChunkIndex:
    """Hash-bucketed on-disk chunk index with a RAM page cache.

    Args:
        disk: disk model charged for bucket page faults.
        expected_entries: sizing hint; fixes the bucket count so page ids
            are stable for the life of the index.
        page_bytes: bucket page size transferred per fault (default 4 KiB).
        entry_bytes: on-disk bytes per index entry (fingerprint + location).
        page_cache_pages: RAM page-cache capacity, in pages (0 disables).
        journaled: track which entries are merely *buffered* (not yet
            flushed to disk) so a simulated crash can lose them; off by
            default — the tracking is the fault layer's cost, and the
            default path must stay zero-overhead.
        retry: transient-IO retry policy for bucket reads and flushes
            (only meaningful with a :class:`~repro.faults.FaultyDisk`).
    """

    def __init__(
        self,
        disk: DiskModel,
        expected_entries: int = 1_000_000,
        page_bytes: int = 4 * KIB,
        entry_bytes: int = 40,
        page_cache_pages: int = 256,
        journaled: bool = False,
        retry=None,
    ) -> None:
        check_positive("expected_entries", expected_entries)
        check_positive("page_bytes", page_bytes)
        check_positive("entry_bytes", entry_bytes)
        self.disk = disk
        self.page_bytes = int(page_bytes)
        self.entry_bytes = int(entry_bytes)
        entries_per_page = max(1, self.page_bytes // self.entry_bytes)
        self.n_pages = max(1, -(-int(expected_entries) // entries_per_page))
        self._map: Dict[int, ChunkLocation] = {}
        self._page_cache: Optional[LRUCache] = (
            LRUCache(page_cache_pages) if page_cache_pages > 0 else None
        )
        self.stats = IndexStats()
        # journaled mode: fp -> value before the first unflushed write
        # (None if absent), so a crash can roll the RAM image back to the
        # last durable flush. None disables all tracking.
        self._unflushed: Optional[Dict[int, Optional[ChunkLocation]]] = (
            {} if journaled else None
        )
        if retry is not None:
            from repro.faults import with_retry

            self._disk_read = with_retry(disk, retry, disk.read, "index.read")
            self._disk_write = with_retry(disk, retry, disk.write, "index.flush")
        else:
            self._disk_read = disk.read
            self._disk_write = disk.write
        from repro.faults import injector_of

        self._inj = injector_of(disk)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, fp: int) -> bool:
        """RAM-model membership check (no disk charge) — for tests,
        oracles, and batch-path *routing* (deciding which deferred
        :meth:`lookup_many` batch a chunk joins; every routed chunk still
        pays its authoritative lookup). Engines must not use it to skip
        a lookup's charge."""
        return int(fp) in self._map

    def page_of(self, fp: int) -> int:
        """Stable bucket page id for a fingerprint."""
        return int(fp) % self.n_pages

    def lookup(self, fp: int) -> Optional[ChunkLocation]:
        """Authoritative lookup, charging a disk page fault unless the
        bucket page is cached in RAM.

        Note the asymmetry with a dict: a *negative* lookup (fingerprint
        absent — e.g. a bloom false positive) costs the same page fault,
        because absence is only proven by reading the bucket. Negative
        results are tallied in ``stats.negative_lookups``.
        """
        fp = int(fp)
        self.stats.lookups += 1
        page = self.page_of(fp)
        if self._page_cache is not None and self._page_cache.get(page) is not None:
            self.stats.page_hits += 1
        else:
            self.stats.page_faults += 1
            self._disk_read(self.page_bytes, seeks=1)
            if self._page_cache is not None:
                self._page_cache.put(page, True)
        loc = self._map.get(fp)
        if loc is None:
            self.stats.negative_lookups += 1
        return loc

    def lookup_many(self, fps) -> List[Optional[ChunkLocation]]:
        """Authoritative lookup of a fingerprint run, in order.

        Misses naturally group by bucket-page id: the first lookup that
        faults a page brings it into the RAM page cache, so subsequent
        lookups hashing to the same page within the run hit in RAM — one
        simulated fault per distinct faulted page (while the pages fit in
        the cache). The page cache and disk are driven in exactly the
        sequence ``[lookup(fp) for fp in fps]`` would drive them, so
        simulated-cost accounting (faults, stats, clock) is preserved to
        the bit; only the per-call Python overhead is batched away.

        Returns one location (or None) per fingerprint.
        """
        if isinstance(fps, np.ndarray):
            fps = fps.tolist()
        stats = self.stats
        page_cache = self._page_cache
        map_get = self._map.get
        n_pages = self.n_pages
        page_bytes = self.page_bytes
        disk_read = self._disk_read
        out: List[Optional[ChunkLocation]] = []
        append = out.append
        lookups = hits = faults = negatives = 0
        for fp in fps:
            fp = int(fp)
            lookups += 1
            page = fp % n_pages
            if page_cache is not None and page_cache.get(page) is not None:
                hits += 1
            else:
                faults += 1
                disk_read(page_bytes, seeks=1)
                if page_cache is not None:
                    page_cache.put(page, True)
            loc = map_get(fp)
            if loc is None:
                negatives += 1
            append(loc)
        stats.lookups += lookups
        stats.page_hits += hits
        stats.page_faults += faults
        stats.negative_lookups += negatives
        return out

    def lookup_batch_sorted(self, fps) -> List[Optional[ChunkLocation]]:
        """Out-of-line batch lookup: resolve the whole batch with one
        sequential sweep of the on-disk bucket file (one positioning
        plus the full index transfer), merging the page-sorted batch
        against it — the sorted-merge access pattern out-of-line dedup
        exists to exploit. The cost is one index scan regardless of
        batch size or order, so it beats :meth:`lookup_many` whenever a
        batch would fault more pages than the file holds — which is why
        maintenance passes can afford exact dedup that would be ruinous
        chunk-at-a-time inline. The RAM page cache is neither consulted
        nor polluted (the sweep is scan-resistant). Results are in
        input order, one location (or None) per fingerprint.
        """
        out = self.peek_many(fps)
        stats = self.stats
        stats.lookups += len(out)
        stats.negative_lookups += out.count(None)
        if out:
            stats.sweeps += 1
            stats.sweep_pages += self.n_pages
            self._disk_read(self.n_pages * self.page_bytes, seeks=1)
        return out

    def _track(self, fp: int) -> None:
        """Journaled mode: remember the pre-write value so a crash can
        roll the RAM image back to the last durable flush."""
        unflushed = self._unflushed
        if fp not in unflushed:  # type: ignore[operator]
            unflushed[fp] = self._map.get(fp)  # type: ignore[index]

    def insert(self, fp: int, location: ChunkLocation) -> None:
        """Record a newly written chunk (batched write; no disk charge)."""
        fp = int(fp)
        if self._unflushed is not None:
            self._track(fp)
        self._map[fp] = location
        self.stats.inserts += 1

    def insert_many(self, fps, locations) -> None:
        """Record a run of newly written chunks — ``insert`` pairwise,
        batched (no disk charge either way). ``fps`` must be plain ints."""
        if self._unflushed is not None:
            for fp in fps:
                self._track(fp)
        self._map.update(zip(fps, locations))
        self.stats.inserts += len(locations)

    def update_many(self, fps, locations) -> None:
        """Re-point a run of existing fingerprints — ``update`` pairwise,
        batched. Later pairs win on a repeated fingerprint, exactly as
        sequential calls would. ``fps`` must be plain ints."""
        if self._unflushed is not None:
            for fp in fps:
                self._track(fp)
        self._map.update(zip(fps, locations))
        self.stats.updates += len(locations)

    def upsert_many(self, fps, locations) -> None:
        """Record a run of freshly written copies, each fingerprint's
        entry created or re-pointed — ``insert`` where the fingerprint is
        absent, else ``update``, pairwise and in order, batched. A
        fingerprint repeated in the run is inserted at most once: its
        later pairs are updates, as sequential calls would count them.
        ``fps`` must be plain ints."""
        if self._unflushed is not None:
            for fp in fps:
                self._track(fp)
        new = len(set(fps).difference(self._map))
        self._map.update(zip(fps, locations))
        self.stats.inserts += new
        self.stats.updates += len(locations) - new

    def update(self, fp: int, location: ChunkLocation) -> None:
        """Re-point an existing fingerprint at a fresher physical copy
        (DeFrag's rewrite path). Batched like :meth:`insert`."""
        fp = int(fp)
        if self._unflushed is not None:
            self._track(fp)
        self._map[fp] = location
        self.stats.updates += 1

    # ------------------------------------------------------------------
    # durability (journaled mode) + crash/recovery support
    # ------------------------------------------------------------------

    def flush(self) -> int:
        """Persist the buffered inserts/updates (the per-backup index
        merge DDFS batches). Returns the number of entries made durable.

        In the default (non-journaled) mode this is a free no-op: the
        amortized merge cost is already folded into the engine's
        per-chunk CPU constant, and there is no fault model to observe a
        lost flush. In journaled mode the merge is charged as one
        sequential write, and the fault plan may *drop* it — the caller
        believes it succeeded, but the entries stay volatile and a later
        crash loses them (which is why recovery rebuilds the index from
        container metadata instead of trusting the flush watermark).
        """
        if self._unflushed is None:
            return 0
        n = len(self._unflushed)
        if n == 0:
            return 0
        if self._inj is not None:
            with self._inj.tagged("index_flush"):
                self._disk_write(n * self.entry_bytes, seeks=1)
            if self._inj.take_flush_drop():
                return 0
        else:
            self._disk_write(n * self.entry_bytes, seeks=1)
        self._unflushed.clear()
        self.stats.flushes += 1
        self.stats.entries_flushed += n
        return n

    def crash(self) -> None:
        """Simulate power loss: every entry written since the last
        *successful* flush reverts to its pre-write value (dropped
        flushes never cleared the buffer, so their entries are lost here
        too — exactly the failure the recovery rebuild heals)."""
        if self._unflushed is None:
            return
        for fp, old in self._unflushed.items():
            if old is None:
                self._map.pop(fp, None)
            else:
                self._map[fp] = old
        self._unflushed.clear()

    def load_recovered(self, entries: Dict[int, ChunkLocation]) -> int:
        """Replace the whole map with a recovery-scanner rebuild.

        Bookkeeping only — the scanner charges the container-log scan
        and the rebuilt-index write itself. The rebuilt entries count as
        flushed (they were just written durably)."""
        self._map = dict(entries)
        if self._unflushed is not None:
            self._unflushed.clear()
        return len(self._map)

    def peek(self, fp: int) -> Optional[ChunkLocation]:
        """Location without any disk charge (oracle/bookkeeping use)."""
        return self._map.get(int(fp))

    def peek_many(self, fps) -> List[Optional[ChunkLocation]]:
        """``[peek(fp) for fp in fps]``: locations without any disk
        charge or stats change, in input order."""
        if isinstance(fps, np.ndarray):
            fps = fps.tolist()
        return list(map(self._map.get, fps))

    @property
    def disk_bytes(self) -> int:
        """On-disk footprint of the index."""
        return len(self._map) * self.entry_bytes
