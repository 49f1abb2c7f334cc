"""The append-only container store (the on-disk chunk log).

New unique chunks are appended in stream order; when the open container
fills it is *sealed*: its payload and metadata section are written to the
log (sequential transfer, plus one positioning to return the head to the
log from any intervening random reads).

The store is shared by the dedup engine (writes + metadata prefetches) and
the restore reader (container reads), all priced on one
:class:`~repro.storage.disk.DiskModel`.
"""

from __future__ import annotations

import contextlib
import itertools
import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.storage.container import (
    CHUNK_METADATA_BYTES,
    DEFAULT_CONTAINER_BYTES,
    Container,
    SealedContainer,
)
from repro.storage.disk import DiskModel
from repro.storage.spill import ContainerSpill, decode_container, encode_container, make_spill

if TYPE_CHECKING:  # pragma: no cover - typing only (repro.faults imports
    # repro.storage.disk; keeping this lazy avoids the cycle at import time)
    from repro.faults import RetryPolicy

#: Bytes of the per-container commit marker (journaled mode only): a
#: cid + checksum record appended after the payload and metadata so a
#: torn seal is detectable by the recovery scanner.
COMMIT_MARKER_BYTES = 16

#: Bytes charged per journaled GC record entry (victim cid or move).
JOURNAL_ENTRY_BYTES = 16

#: Per-process sequence for unique store spill subdirectories — cid
#: spaces overlap across stores, so each instance must own its own dir.
_SPILL_SEQ = itertools.count()


@dataclass(frozen=True)
class StoreConfig:
    """All knobs of the container log and its readers, in one place.

    Consolidates the keyword sprawl (``container_bytes``, ``seal_seeks``,
    ``cache_containers``) that used to travel loose through
    :class:`ContainerStore`, :class:`~repro.restore.reader.RestoreReader`
    and :class:`~repro.experiments.config.ExperimentConfig`; the old
    kwargs remain as deprecated aliases for one release.

    Attributes:
        container_bytes: payload capacity per container.
        seal_seeks: positionings charged when sealing.
        cache_containers: the restore reader's LRU container cache.
        journal: enable the durability protocol — per-seal commit
            markers and the GC mark/commit journal are written (and
            charged). Off by default: the fault layer is zero-cost when
            disabled.
        retry: transient-IO retry policy for store/index disk
            operations (None = fail fast; only meaningful with a
            :class:`~repro.faults.FaultyDisk`).
        resident_containers: out-of-core budget — at most this many
            sealed containers stay materialized in RAM; the rest live
            in the spill backend and fault back on read. ``None``
            (default) keeps every sealed container resident, exactly
            the pre-spill behavior. Spill IO is real machine IO, never
            charged to the simulated disk, so results are byte-
            identical with spilling on or off.
        spill_dir: root directory for the spill files; ``None`` uses
            the in-memory shim (tests, chaos). Only meaningful together
            with ``resident_containers``. Each store instance owns a
            unique subdirectory under this root (``store-<pid>-<seq>``),
            so concurrent stores — parallel grid cells, per-tenant
            stores, per-engine memoized runs — can share one configured
            root without clobbering each other's container files (cid
            spaces overlap across stores). The live path is
            :attr:`ContainerStore.spill_path`.
    """

    container_bytes: int = DEFAULT_CONTAINER_BYTES
    seal_seeks: int = 1
    cache_containers: int = 32
    journal: bool = False
    retry: "Optional[RetryPolicy]" = None
    resident_containers: Optional[int] = None
    spill_dir: Optional[str] = None


@dataclass
class StoreStats:
    """Cumulative container-store accounting."""

    containers_sealed: int = 0
    containers_removed: int = 0
    chunks_written: int = 0
    payload_bytes: int = 0
    metadata_bytes: int = 0
    meta_prefetches: int = 0
    container_reads: int = 0
    batched_reads: int = 0

    @property
    def physical_bytes(self) -> int:
        """Total bytes occupying the log (payload + metadata)."""
        return self.payload_bytes + self.metadata_bytes


@dataclass
class SpillStats:
    """Out-of-core accounting (real machine IO, never simulated IO)."""

    spilled: int = 0
    evictions: int = 0
    faults: int = 0
    bytes_spilled: int = 0
    bytes_faulted: int = 0


#: Per-container directory entry kept resident for *every* sealed
#: container (spilled or not): (n_chunks, data_bytes, metadata_bytes).
#: ~3 ints per container, so membership/size queries never fault.
_MetaEntry = Tuple[int, int, int]


class ContainerStore:
    """Append-only log of containers over a simulated disk.

    Args:
        disk: the disk model charged for seals, prefetches and reads.
        config: a :class:`StoreConfig`; the default models the classic
            append-only log with no durability journal.
    """

    def __init__(
        self,
        disk: DiskModel,
        *,
        config: Optional[StoreConfig] = None,
    ) -> None:
        if config is None:
            config = StoreConfig()
        if config.spill_dir is not None and config.resident_containers is None:
            raise ValueError(
                "StoreConfig.spill_dir without resident_containers: "
                "set a resident budget to enable the out-of-core store"
            )
        if config.resident_containers is not None and config.resident_containers < 1:
            raise ValueError(
                f"resident_containers must be >= 1, got {config.resident_containers}"
            )
        self.disk = disk
        self.config = config
        self.container_bytes = int(config.container_bytes)
        self.seal_seeks = int(config.seal_seeks)
        self.journaled = bool(config.journal)
        self.stats = StoreStats()
        self.spill_stats = SpillStats()
        # out-of-core state: the resident LRU holds materialized
        # containers; _meta is the always-resident directory of every
        # sealed cid (so has/cids/remove never fault a container back).
        self._resident: "OrderedDict[int, SealedContainer]" = OrderedDict()
        self._meta: Dict[int, _MetaEntry] = {}
        self._spill: Optional[ContainerSpill] = None
        self._resident_budget = 0
        self._spill_path: Optional[str] = None
        if config.resident_containers is not None:
            if config.spill_dir is not None:
                # every store instance gets its own subdirectory: cid
                # spaces overlap across stores (each starts at cid 0),
                # so two stores sharing one root would silently
                # overwrite each other's {cid}.ctn files
                self._spill_path = os.path.join(
                    config.spill_dir,
                    f"store-{os.getpid()}-{next(_SPILL_SEQ):04d}",
                )
            self._spill = make_spill(self._spill_path)
            self._resident_budget = int(config.resident_containers)
        self._open: Optional[Container] = None
        self._next_cid = 0
        # durability protocol state (journaled mode)
        self._committed: Set[int] = set()
        self._journal: List[Dict] = []
        # retry-wrapped disk ops (bound once: the default path binds the
        # raw methods, so fault-free runs pay nothing extra)
        if config.retry is not None:
            from repro.faults import with_retry

            self._read = with_retry(disk, config.retry, disk.read, "store.read")
            self._write = with_retry(disk, config.retry, disk.write, "store.write")
        else:
            self._read = disk.read
            self._write = disk.write
        from repro.faults import injector_of

        self._inj = injector_of(disk)

    def _tagged(self, tag: str):
        """Injector context for classifying fault sites (no-op disk)."""
        if self._inj is None:
            return contextlib.nullcontext()
        return self._inj.tagged(tag)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    @property
    def open_container(self) -> Optional[Container]:
        """The in-progress container, if any."""
        return self._open

    @property
    def n_containers(self) -> int:
        """Number of sealed containers (resident or spilled)."""
        return len(self._meta)

    @property
    def n_resident(self) -> int:
        """Sealed containers currently materialized in RAM."""
        return len(self._resident)

    @property
    def spilling(self) -> bool:
        """True when a resident budget (and spill backend) is active."""
        return self._spill is not None

    @property
    def spill_path(self) -> Optional[str]:
        """This instance's unique spill directory (``None`` for the
        in-memory shim). Always a fresh ``store-<pid>-<seq>``
        subdirectory of ``config.spill_dir``."""
        return self._spill_path

    def current_cid(self, size: int) -> int:
        """The container id the *next* chunk of ``size`` bytes will land in
        (sealing the open container first if it would not fit)."""
        if self._open is not None and not self._open.fits(size):
            self._seal_open()
        if self._open is None:
            self._open = Container(self._next_cid, self.container_bytes)
            self._next_cid += 1
        return self._open.cid

    def append(self, fp: int, size: int) -> int:
        """Append one chunk to the log; returns the container id it landed
        in. Seals and charges the previous container when it fills.

        Semantically ``current_cid(size)`` + ``Container.add``; open-coded
        because this is the hottest call of the ingest write path."""
        if size <= 0:
            raise ValueError(f"chunk size must be > 0, got {size}")
        fp = int(fp)
        size = int(size)
        open_ = self._open
        # inlined Container.fits / Container.add_unchecked (slot access
        # instead of two method calls per chunk)
        if open_ is not None and open_._bytes != 0 and size > open_.capacity - open_._bytes:
            self._seal_open()
            open_ = None
        if open_ is None:
            open_ = self._open = Container(self._next_cid, self.container_bytes)
            self._next_cid += 1
        open_._fps.append(fp)
        open_._sizes.append(size)
        open_._bytes += size
        self.stats.chunks_written += 1
        return open_.cid

    def append_run(self, fps: list, sizes: list) -> list:
        """Append a run of chunks in stream order; returns one container
        id per chunk. Byte-identical to ``[self.append(f, s) for f, s in
        zip(fps, sizes)]`` — same greedy packing, same seal charges at the
        same sequence points — but packed one *container* at a time
        instead of one chunk at a time. ``fps``/``sizes`` must be plain
        Python ints (callers hold ``.tolist()`` output).
        """
        n = len(fps)
        if n == 0:
            return []
        if min(sizes) <= 0:
            raise ValueError(f"chunk size must be > 0, got {min(sizes)}")
        cs = np.cumsum(np.asarray(sizes, dtype=np.int64))
        cids: list = []
        pos = 0
        while pos < n:
            open_ = self._open
            if open_ is None:
                open_ = self._open = Container(self._next_cid, self.container_bytes)
                self._next_cid += 1
            prev = int(cs[pos - 1]) if pos else 0
            # chunks [pos, k) fit the remaining room of the open container
            k = int(np.searchsorted(cs, prev + open_.capacity - open_._bytes, "right"))
            if k <= pos:
                if open_._bytes != 0:
                    self._seal_open()
                    continue
                # an oversize chunk still lands in an empty container
                # (exactly as the scalar append admits it)
                k = pos + 1
            open_._fps += fps[pos:k]
            open_._sizes += sizes[pos:k]
            open_._bytes += int(cs[k - 1]) - prev
            cids += [open_.cid] * (k - pos)
            pos = k
        self.stats.chunks_written += n
        return cids

    def flush(self) -> Optional[int]:
        """Seal the open container (end of a backup stream). Returns the
        sealed cid, or None if nothing was open."""
        if self._open is None or self._open.n_chunks == 0:
            self._open = None
            return None
        cid = self._open.cid
        self._seal_open()
        return cid

    def _seal_open(self) -> None:
        assert self._open is not None
        sealed = self._open.seal()
        nbytes = sealed.data_bytes + sealed.metadata_bytes
        if self.journaled:
            # commit protocol: (1) payload + metadata, (2) commit marker.
            # A crash during (1) loses the container entirely (it never
            # reaches the sealed log); a crash during (2) leaves a *torn*
            # tail — durable payload with no marker — which the recovery
            # scanner detects and truncates.
            with self._tagged("seal"):
                self._write(nbytes, seeks=self.seal_seeks)
            self._admit_sealed(sealed)
            self.stats.containers_sealed += 1
            self.stats.payload_bytes += sealed.data_bytes
            self.stats.metadata_bytes += sealed.metadata_bytes
            self._open = None
            with self._tagged("seal_marker"):
                self._write(COMMIT_MARKER_BYTES, seeks=0)
            self._committed.add(sealed.cid)
            return
        self._admit_sealed(sealed)
        self.disk.write(nbytes, seeks=self.seal_seeks)
        self.stats.containers_sealed += 1
        self.stats.payload_bytes += sealed.data_bytes
        self.stats.metadata_bytes += sealed.metadata_bytes
        self._committed.add(sealed.cid)
        self._open = None

    # ------------------------------------------------------------------
    # out-of-core machinery (real machine IO; never touches the
    # simulated disk — the twin-run contract depends on it)
    # ------------------------------------------------------------------

    def _admit_sealed(self, sealed: SealedContainer) -> None:
        """Register a freshly sealed container: always enters the
        directory and the resident set; under a spill budget it is also
        written through to the spill backend (the durable copy evicts
        rely on) and the LRU is trimmed."""
        cid = sealed.cid
        self._resident[cid] = sealed
        self._meta[cid] = (sealed.n_chunks, sealed.data_bytes, sealed.metadata_bytes)
        if self._spill is not None:
            blob = encode_container(sealed)
            self._spill.put(cid, blob)
            self.spill_stats.spilled += 1
            self.spill_stats.bytes_spilled += len(blob)
            evicted = self._evict_over_budget()
            self._record_spill_obs("spilled", len(blob), evicted)

    def _evict_over_budget(self) -> int:
        """Trim the resident LRU to the budget; returns the number of
        evictions. Eviction is free: seals write through, so the spill
        copy already exists."""
        evicted = 0
        while len(self._resident) > self._resident_budget:
            self._resident.popitem(last=False)
            self.spill_stats.evictions += 1
            evicted += 1
        return evicted

    def _fault_in(self, cid: int) -> SealedContainer:
        """Materialize a spilled container back into the resident LRU."""
        assert self._spill is not None
        try:
            blob = self._spill.get(cid)
        except (KeyError, FileNotFoundError):
            raise KeyError(cid) from None
        sealed = decode_container(blob)
        self.spill_stats.faults += 1
        self.spill_stats.bytes_faulted += len(blob)
        self._resident[cid] = sealed
        evicted = self._evict_over_budget()
        self._record_spill_obs("faults", len(blob), evicted)
        return sealed

    def _record_spill_obs(self, what: str, nbytes: int, evicted: int) -> None:
        from repro.obs import get_active

        obs = get_active()
        if not obs.enabled:
            return
        reg = obs.registry
        reg.counter(f"store.spill.{what}").inc()
        suffix = "bytes_spilled" if what == "spilled" else "bytes_faulted"
        reg.counter(f"store.spill.{suffix}").inc(nbytes)
        if evicted:
            reg.counter("store.spill.evictions").inc(evicted)
        reg.gauge("store.spill.resident").set(len(self._resident))

    def _drop_everywhere(self, cid: int) -> None:
        """Forget a sealed container in the resident set and the spill
        backend (remove / torn-tail truncation)."""
        self._resident.pop(cid, None)
        if self._spill is not None:
            self._spill.delete(cid)

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def get(self, cid: int) -> SealedContainer:
        """Look up a sealed container by id (no simulated-disk charge;
        bookkeeping only). Under a resident budget a spilled container
        faults back in (real machine IO, still no simulated charge).
        Raises KeyError for unknown or still-open containers."""
        sealed = self._resident.get(cid)
        if sealed is not None:
            if self._spill is not None:
                self._resident.move_to_end(cid)
            return sealed
        if self._spill is not None and cid in self._meta:
            return self._fault_in(cid)
        raise KeyError(cid)

    def has(self, cid: int) -> bool:
        """True if ``cid`` refers to a sealed container."""
        return cid in self._meta

    def data_bytes(self, cid: int) -> int:
        """Payload bytes of sealed container ``cid``, served from the
        resident directory: a spilled container is never faulted back in.
        Raises KeyError for unknown or still-open containers."""
        return self._meta[cid][1]

    def prefetch_meta(self, cid: int) -> np.ndarray:
        """Read a container's metadata section (its fingerprints) from
        disk — the DDFS locality prefetch. Charges one seek plus the
        metadata transfer; returns the fingerprint array."""
        sealed = self.get(cid)
        self._read(sealed.metadata_bytes, seeks=1)
        self.stats.meta_prefetches += 1
        return sealed.fingerprints

    def read_container(self, cid: int) -> SealedContainer:
        """Read a whole container (restore path): one seek + full payload
        and metadata transfer."""
        sealed = self.get(cid)
        self._read(sealed.data_bytes + sealed.metadata_bytes, seeks=1)
        self.stats.container_reads += 1
        return sealed

    def read_container_run(self, cids: Sequence[int]) -> List[SealedContainer]:
        """Read a physically sequential run of containers in **one**
        positioning (the restore read-ahead path).

        The containers of consecutive cids are adjacent in the
        append-only log, so after seeking to the first one the rest
        stream at sequential bandwidth: the whole run is priced as one
        seek plus the summed payload+metadata transfer — exactly Eq. 1
        with the run counted as a single fragment.

        Args:
            cids: strictly consecutive sealed container ids
                (``cid, cid+1, ...``); a gap means the run is not
                physically contiguous and is rejected.
        """
        if not cids:
            raise ValueError("read_container_run needs at least one cid")
        for prev, nxt in zip(cids, cids[1:]):
            if nxt != prev + 1:
                raise ValueError(
                    f"container run must be consecutive cids, got {list(cids)}"
                )
        sealed = [self.get(cid) for cid in cids]
        nbytes = sum(s.data_bytes + s.metadata_bytes for s in sealed)
        self._read(nbytes, seeks=1)
        self.stats.container_reads += len(sealed)
        if len(sealed) > 1:
            self.stats.batched_reads += 1
        return sealed

    def remove(self, cid: int) -> int:
        """Drop a sealed container from the log (garbage collection).
        Returns the payload bytes freed. Bookkeeping only — the space is
        reclaimed in place; no disk charge beyond the reads/writes the
        collector already performed."""
        _, data_bytes, metadata_bytes = self._meta.pop(cid)
        self._drop_everywhere(cid)
        self.stats.payload_bytes -= data_bytes
        self.stats.metadata_bytes -= metadata_bytes
        self.stats.containers_removed += 1
        return data_bytes

    # ------------------------------------------------------------------
    # durability protocol (journaled mode) + crash/recovery support
    # ------------------------------------------------------------------

    def journal_append(self, record: Dict) -> None:
        """Durably append one metadata-journal record (GC mark/commit).

        The record only becomes durable once the charged write returns;
        an injected crash mid-write leaves the journal without it —
        exactly the window the recovery scanner's rollback covers.
        """
        if self.journaled:
            entries = len(record.get("victims", ())) + len(record.get("moved", ()))
            with self._tagged("journal"):
                self._write(max(1, entries) * JOURNAL_ENTRY_BYTES, seeks=1)
        self._journal.append(dict(record))

    def journal_records(self) -> List[Dict]:
        """The metadata journal, oldest first (a copy)."""
        return [dict(r) for r in self._journal]

    def journal_pop(self, record: Dict) -> None:
        """Drop one journal record (recovery rollback of a dangling
        mark). Bookkeeping only."""
        self._journal.remove(record)

    def is_committed(self, cid: int) -> bool:
        """True if ``cid``'s seal reached its commit marker."""
        return cid in self._committed

    def uncommitted_cids(self) -> List[int]:
        """Sealed containers whose commit marker never became durable —
        the torn tail a crash mid-seal leaves behind."""
        return sorted(cid for cid in self._meta if cid not in self._committed)

    def crash(self) -> None:
        """Simulate power loss: the open (unsealed) container is gone;
        the sealed log, commit markers, and journal survive. Torn
        containers stay visible until :meth:`truncate_torn` (the
        recovery scanner's first act) removes them."""
        self._open = None

    def truncate_torn(self) -> List[int]:
        """Remove every sealed-but-uncommitted container (recovery's
        torn-tail truncation). Returns the truncated cids. Bookkeeping
        only — the scanner charges the log scan that found them."""
        torn = self.uncommitted_cids()
        for cid in torn:
            _, data_bytes, metadata_bytes = self._meta.pop(cid)
            self._drop_everywhere(cid)
            self.stats.payload_bytes -= data_bytes
            self.stats.metadata_bytes -= metadata_bytes
        return torn

    def cids(self) -> List[int]:
        """Sorted ids of all sealed containers (resident or spilled)."""
        return sorted(self._meta)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def container_of_chunk_count(self) -> Dict[int, int]:
        """Map cid -> number of chunks, for layout analysis (served from
        the resident directory; never faults)."""
        return {cid: m[0] for cid, m in self._meta.items()}

    def logical_metadata_bytes(self, n_chunks: int) -> int:
        """Metadata footprint of ``n_chunks`` chunks (helper for cost
        estimation)."""
        return n_chunks * CHUNK_METADATA_BYTES
