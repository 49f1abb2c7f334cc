"""Engine contract, cost model, and per-backup reports.

An engine consumes a backup stream segment by segment. Everything it does
is charged to two meters:

* the shared :class:`~repro.storage.disk.DiskModel` (index page faults,
  metadata prefetches, container seals), and
* an analytic CPU term (:class:`CostModel`): fingerprinting/lookup work
  per byte and per chunk.

Simulated throughput for a backup is ``logical_bytes / elapsed simulated
seconds``. Wall-clock time never enters any reported number, so the
reproduction's results cannot be skewed by Python's own speed.
"""

from __future__ import annotations

import abc
import contextlib
import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro._util import MIB, check_nonnegative, format_rate
from repro.index.full_index import DiskChunkIndex
from repro.obs import Observability, get_active
from repro.obs.spans import EngineScope
from repro.segmenting.segmenter import Segment
from repro.storage.disk import DiskModel, DiskStats
from repro.storage.recipe import BackupRecipe, RecipeBuilder
from repro.storage.store import ContainerStore, StoreConfig

log = logging.getLogger(__name__)

#: shared no-op context for engines on a fault-free disk
_NULL_CTX = contextlib.nullcontext()


@dataclass(frozen=True)
class CostModel:
    """Analytic CPU costs of the ingest path.

    Attributes:
        cpu_seconds_per_byte: chunking + fingerprinting cost (defaults to
            a 600 MB/s single-stream hash pipeline, the right order for a
            circa-2012 backup server).
        cpu_seconds_per_chunk: constant per-chunk work: RAM lookups,
            bloom probes, amortized batched index merge.
    """

    cpu_seconds_per_byte: float = 1.0 / 600e6
    cpu_seconds_per_chunk: float = 2e-6

    def __post_init__(self) -> None:
        check_nonnegative("cpu_seconds_per_byte", self.cpu_seconds_per_byte)
        check_nonnegative("cpu_seconds_per_chunk", self.cpu_seconds_per_chunk)

    def segment_cpu_seconds(self, nbytes: int, n_chunks: int) -> float:
        """CPU time to ingest one segment."""
        return nbytes * self.cpu_seconds_per_byte + n_chunks * self.cpu_seconds_per_chunk


@dataclass
class SegmentOutcome:
    """What happened to one incoming segment.

    Byte counters partition the segment exactly:
    ``written_new + removed_dup + rewritten_dup == nbytes`` where

    * ``written_new`` — chunks the engine believed new. For near-exact
      engines this may include true duplicates the engine failed to
      detect; the pipeline's oracle quantifies those afterwards
      (``BackupReport.missed_dup_bytes``).
    * ``removed_dup`` — duplicates eliminated by reference.
    * ``rewritten_dup`` — duplicates knowingly stored again (DeFrag's
      low-SPL rewrites).
    """

    index: int
    n_chunks: int
    nbytes: int
    written_new: int = 0
    removed_dup: int = 0
    rewritten_dup: int = 0

    def __post_init__(self) -> None:
        if self.n_chunks < 0 or self.nbytes < 0:
            raise ValueError("segment accounting cannot be negative")

    @property
    def stored_bytes(self) -> int:
        """Bytes physically written for this segment."""
        return self.written_new + self.rewritten_dup

    def check_partition(self) -> None:
        """Assert the byte partition identity."""
        total = self.written_new + self.removed_dup + self.rewritten_dup
        if total != self.nbytes:
            raise AssertionError(
                f"segment {self.index}: partition {total} != nbytes {self.nbytes}"
            )


@dataclass
class MaintenanceReport:
    """Outcome of one out-of-line maintenance pass.

    Produced by engines whose placement policy does work *between*
    backups (RevDedup's reverse-reference rewrite, the hybrid engine's
    deferred exact dedup). Every number is priced on the simulated
    clock, exactly like ingest.

    Attributes:
        generation: the generation the pass closed.
        engine: engine display name.
        elapsed_seconds: simulated seconds the pass took.
        containers_rewritten: victim containers compacted.
        bytes_moved: live payload copied during compaction.
        bytes_reclaimed: payload bytes freed.
        redirected_chunks: recipe references repointed to a preferred
            copy without any data movement.
        index_lookups: charged on-disk index probes the pass issued
            (the hybrid engine's deferred dedup bill).
        disk_delta: disk meter delta over the pass.
    """

    generation: int
    engine: str
    elapsed_seconds: float
    containers_rewritten: int = 0
    bytes_moved: int = 0
    bytes_reclaimed: int = 0
    redirected_chunks: int = 0
    index_lookups: int = 0
    disk_delta: Optional[DiskStats] = None


@dataclass
class BackupReport:
    """Per-backup result: dedup accounting, simulated time, the recipe.

    Ground-truth fields (``true_dup_bytes`` etc.) are filled in by the
    pipeline's oracle, not by engines.
    """

    generation: int
    label: str
    n_chunks: int
    logical_bytes: int
    written_new_bytes: int
    removed_dup_bytes: int
    rewritten_dup_bytes: int
    elapsed_seconds: float
    recipe: BackupRecipe
    disk_delta: DiskStats
    segments: List[SegmentOutcome] = field(default_factory=list)
    # oracle-provided ground truth
    true_dup_bytes: Optional[int] = None
    seg_true_dup_bytes: Optional[List[int]] = None
    seg_fully_dup: Optional[List[bool]] = None
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Simulated ingest rate, bytes/second."""
        return self.logical_bytes / self.elapsed_seconds if self.elapsed_seconds else 0.0

    @property
    def stored_bytes(self) -> int:
        return self.written_new_bytes + self.rewritten_dup_bytes

    @property
    def dedup_ratio(self) -> float:
        """logical / stored for this backup alone (1.0 == no savings)."""
        stored = self.stored_bytes
        return self.logical_bytes / stored if stored else float("inf")

    @property
    def missed_dup_bytes(self) -> Optional[int]:
        """True duplicates the engine stored as new (None before the
        oracle runs). DeFrag's intentional rewrites are *not* misses."""
        if self.true_dup_bytes is None:
            return None
        return self.true_dup_bytes - self.removed_dup_bytes - self.rewritten_dup_bytes

    @property
    def efficiency(self) -> Optional[float]:
        """The paper's deduplication-efficiency metric: redundant data
        removed divided by redundant data actually existing (Fig. 3)."""
        if self.true_dup_bytes is None:
            return None
        if self.true_dup_bytes == 0:
            return 1.0
        return self.removed_dup_bytes / self.true_dup_bytes

    def summary(self) -> str:
        """One-line human summary."""
        eff = self.efficiency
        eff_s = f", eff={eff:.3f}" if eff is not None else ""
        return (
            f"gen {self.generation:>3} [{self.label}] "
            f"{self.logical_bytes / MIB:8.1f} MiB in {self.elapsed_seconds:7.3f} s "
            f"-> {format_rate(self.throughput)}{eff_s}"
        )


@dataclass
class EngineResources:
    """The shared substrate an engine runs on: one disk, one container
    store, one on-disk index sized for the workload."""

    disk: DiskModel
    store: ContainerStore
    index: DiskChunkIndex

    def __post_init__(self) -> None:
        # Engine-side disk charges (metadata prefetch, similarity-block
        # IO) share the store's retry policy so no charged operation is
        # left outside the fault-tolerance boundary. Without a policy
        # these are the raw disk methods — zero overhead.
        retry = self.store.config.retry
        if retry is None:
            self.read = self.disk.read
            self.write = self.disk.write
        else:
            from repro.faults import with_retry

            self.read = with_retry(self.disk, retry, self.disk.read, "engine.read")
            self.write = with_retry(self.disk, retry, self.disk.write, "engine.write")

    @classmethod
    def create(
        cls,
        profile=None,
        container_bytes: int = 4 * MIB,
        expected_entries: int = 4_000_000,
        index_page_cache_pages: int = 256,
        store_config: Optional[StoreConfig] = None,
        disk: Optional[DiskModel] = None,
    ) -> "EngineResources":
        """Convenience constructor wiring a fresh disk/store/index.

        ``store_config`` carries the durability knobs (journal, retry);
        when given, its ``container_bytes`` wins over the legacy
        parameter. ``disk`` substitutes a pre-built disk (e.g. a
        :class:`~repro.faults.FaultyDisk`) for the default model.
        """
        from repro.storage.disk import HDD_2012

        if disk is None:
            disk = DiskModel(profile=profile if profile is not None else HDD_2012)
        if store_config is None:
            store_config = StoreConfig(container_bytes=container_bytes)
        store = ContainerStore(disk, config=store_config)
        index = DiskChunkIndex(
            disk,
            expected_entries=expected_entries,
            page_cache_pages=index_page_cache_pages,
            journaled=store_config.journal,
            retry=store_config.retry,
        )
        return cls(disk=disk, store=store, index=index)


class DedupEngine(abc.ABC):
    """Common engine skeleton: backup lifecycle + shared meters.

    Subclasses implement :meth:`_process_segment`, which resolves a
    segment's whole fingerprint vector at a time. The selective engines'
    chunk-at-a-time decision ladders live on as executable
    specifications in ``tests/oracle/segment_ladder.py``; the oracle
    suite (``python -m pytest tests/dedup/test_batch_equivalence.py``)
    proves both produce identical outcomes, stats, and simulated clock —
    every stateful side effect (LRU recency, page-cache order, disk
    charges) happens in chunk order, and only the pure computation is
    batched.
    """

    def __init__(
        self,
        resources: EngineResources,
        cost: Optional[CostModel] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.res = resources
        self.cost = cost if cost is not None else CostModel()
        self.obs = obs if obs is not None else get_active()
        self._obs_scope: Optional[EngineScope] = None
        self._recipe: Optional[RecipeBuilder] = None
        self._outcomes: List[SegmentOutcome] = []
        self._backup_t0 = 0.0
        self._disk_t0: Optional[DiskStats] = None
        self._generation = -1
        self._label = ""

    # -- lifecycle ------------------------------------------------------

    def begin_backup(self, generation: int, label: str = "") -> None:
        """Start ingesting one backup stream."""
        if self._recipe is not None:
            raise RuntimeError("previous backup not finished (call end_backup)")
        self._generation = int(generation)
        self._label = label
        self._recipe = RecipeBuilder(generation, label)
        self._outcomes = []
        self._backup_t0 = self.res.disk.clock.now
        self._disk_t0 = self.res.disk.stats.snapshot()
        if self.obs.enabled and self.obs.events.enabled:
            cache = getattr(self, "cache", None)
            if cache is not None and getattr(cache, "on_evict", None) is None:
                cache.on_evict = self._emit_cache_evict
        self._on_begin_backup()

    def process_segment(self, segment: Segment) -> SegmentOutcome:
        """Ingest one segment: charge CPU, classify chunks, write data.

        When observability is enabled this is also the **segment
        boundary** of the sampling contract: the scope probes shared
        meters before/after and attributes phases plus per-segment
        time-series samples (cache hit ratio, index fault rate) at the
        segment's end, all on the simulated clock. Disabled sessions
        perform exactly one attribute check and record nothing.
        """
        if self._recipe is None:
            raise RuntimeError("call begin_backup first")
        cpu_s = self.cost.segment_cpu_seconds(segment.nbytes, segment.n_chunks)
        probe = None
        if self.obs.enabled:
            if self._obs_scope is None:
                self._obs_scope = self.obs.scope_for(self)
            probe = self._obs_scope.begin()
        self.res.disk.clock.advance(cpu_s)
        outcome = self._process_segment(segment)
        outcome.check_partition()
        if probe is not None:
            self._obs_scope.end(self._generation, segment, outcome, probe, cpu_s)
        self._outcomes.append(outcome)
        return outcome

    def end_backup(self) -> BackupReport:
        """Finish the stream: flush the open container, build the report.

        The finished report is also the **generation boundary** of the
        sampling contract: the scope samples dedup ratio, rewrite
        fraction, recipe fragmentation, store occupancy, and throughput
        into the session's time series — reading only the completed
        report and meter state, after every result-bearing number is
        already fixed, so the twin-run byte-identity contract holds.
        """
        if self._recipe is None or self._disk_t0 is None:
            raise RuntimeError("call begin_backup first")
        self._on_end_backup()
        self.res.store.flush()
        self.res.index.flush()  # free no-op unless the index is journaled
        recipe = self._recipe.finalize()
        elapsed = self.res.disk.clock.now - self._backup_t0
        report = BackupReport(
            generation=self._generation,
            label=self._label,
            n_chunks=recipe.n_chunks,
            logical_bytes=recipe.total_bytes,
            written_new_bytes=sum(o.written_new for o in self._outcomes),
            removed_dup_bytes=sum(o.removed_dup for o in self._outcomes),
            rewritten_dup_bytes=sum(o.rewritten_dup for o in self._outcomes),
            elapsed_seconds=elapsed,
            recipe=recipe,
            disk_delta=self.res.disk.stats.delta_since(self._disk_t0),
            segments=self._outcomes,
        )
        report.extras.update(self._collect_extras())
        self._recipe = None
        self._disk_t0 = None
        if self.obs.enabled:
            if self._obs_scope is None:
                self._obs_scope = self.obs.scope_for(self)
            self._obs_scope.record_backup(report)
        log.debug("%s: %s", self.name, report.summary())
        return report

    # -- out-of-line maintenance ------------------------------------------

    def maintenance(
        self, retained: Sequence[BackupRecipe]
    ) -> Tuple[Optional[MaintenanceReport], List[BackupRecipe]]:
        """One out-of-line maintenance pass (optional; subclass hook).

        Engines whose placement policy defers work past ``end_backup``
        override this: RevDedup rewrites *old* containers toward the
        just-written copies, the hybrid engine runs its deferred exact
        dedup. The base implementation is a contractual no-op: no disk
        charge, no clock advance, the retained recipes returned
        unchanged (same objects, same order).

        Args:
            retained: every recipe that must stay restorable, oldest
                first; passes that move data return them remapped.

        Returns:
            ``(report, recipes)`` — ``report`` is ``None`` for a no-op
            pass, the recipes reference the post-maintenance layout.
        """
        return None, list(retained)

    def end_generation(
        self, retained: Sequence[BackupRecipe]
    ) -> Tuple[Optional[MaintenanceReport], List[BackupRecipe]]:
        """Close one generation: drive :meth:`maintenance` under the
        maintenance fault tag and record the pass to observability.

        This is the driver-facing wrapper — experiments and
        :class:`~repro.api.BackupSession` call it between backups; the
        engine-specific policy lives in :meth:`maintenance`. Any charged
        operation inside the pass carries the ``"maint"`` injector tag,
        so chaos crash points land in their own crash class and the
        journaled GC protocol underneath rolls the pass back or forward
        cleanly.
        """
        if self._recipe is not None:
            raise RuntimeError(
                "finish the open backup (end_backup) before maintenance"
            )
        from repro.faults import injector_of

        inj = injector_of(self.res.disk)
        ctx = inj.tagged("maint") if inj is not None else _NULL_CTX
        with ctx:
            report, remapped = self.maintenance(retained)
        if report is not None and self.obs.enabled:
            from repro.obs.spans import record_maintenance

            record_maintenance(self.obs, report)
        return report, remapped

    def _emit_cache_evict(self, unit_id, n_fingerprints: int) -> None:
        """Locality-cache eviction callback -> ``cache_evict`` event."""
        self.obs.events.emit(
            "cache_evict",
            engine=self.name,
            generation=self._generation,
            unit=unit_id,
            fingerprints=n_fingerprints,
        )

    # -- subclass hooks ---------------------------------------------------

    def _on_begin_backup(self) -> None:
        """Per-stream state reset hook (optional)."""

    def _on_end_backup(self) -> None:
        """Pre-flush hook (optional)."""

    def _collect_extras(self) -> Dict[str, float]:
        """Engine-specific per-backup metrics merged into the report's
        ``extras`` (optional)."""
        return {}

    @abc.abstractmethod
    def _process_segment(self, segment: Segment) -> SegmentOutcome:
        """Classify and store one segment; return its outcome."""

    # -- shared helpers ---------------------------------------------------

    @property
    def name(self) -> str:
        """Engine display name."""
        return type(self).__name__.replace("Engine", "")
