"""Crash recovery: replaying the container log back to consistency.

After a simulated power loss (:class:`~repro.faults.SimulatedCrash`) the
durable state is: every *committed* container, the metadata journal, and
whatever index flushes actually reached disk. Everything else — the open
container, a sealed-but-unmarked (torn) tail, buffered index entries,
and a half-finished GC pass — must be repaired before the log can serve
restores or new backups again. :class:`RecoveryScanner` runs that
repair, in the order real container-log systems do:

1. **Truncate torn tails** — a sealed container without its commit
   marker is the torn write the seal protocol makes detectable; it is
   dropped (only the in-flight backup could reference it).
2. **Reconcile GC** — a dangling ``gc_mark`` (no matching ``gc_commit``)
   rolls *back*: the mark record is dropped and the victims stay (the
   sweep's copies are dead garbage a later pass reclaims). A durable
   ``gc_commit`` whose victims still exist rolls *forward*: victims are
   removed and the retained recipes remapped from the journaled move map.
3. **Rebuild the chunk index** — one sequential scan of every committed
   container's metadata section (charged: one positioning plus the
   metadata transfer), newest copy wins; the rebuilt index is written
   back in one batch. Segment identity is not persisted in container
   metadata, so recovered locations carry ``sid = -1`` (conservatively
   treated as an unrelated stored segment by SPL-based policies).

Every disk access the scanner makes goes through the store's
retry-wrapped read path, so transient errors during recovery are retried
on the same backoff policy as normal operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.storage.gc import remap_recipes
from repro.storage.recipe import BackupRecipe
from repro.storage.store import ContainerStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.index.full_index import DiskChunkIndex


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of one recovery pass.

    Attributes:
        containers_scanned: committed containers whose metadata was read.
        torn_truncated: sealed-but-uncommitted containers dropped.
        index_entries_rebuilt: fingerprints in the rebuilt index.
        gc_rolled_back: a dangling GC mark was discarded.
        gc_rolled_forward: a durable GC commit was completed.
        recipes_remapped: retained recipes rewritten by a roll-forward.
        sim_seconds: simulated time the pass took.
    """

    containers_scanned: int
    torn_truncated: int
    index_entries_rebuilt: int
    gc_rolled_back: bool
    gc_rolled_forward: bool
    recipes_remapped: int
    sim_seconds: float


class RecoveryScanner:
    """Replays the container log after a simulated crash.

    Args:
        store: the crashed container store (call :meth:`ContainerStore
            .crash` first — the scanner repairs durable state, it does
            not model the power loss itself).
        index: the chunk index to rebuild (optional; pass the engine's
            index so post-recovery dedup finds every surviving copy).
    """

    def __init__(
        self, store: ContainerStore, index: "Optional[DiskChunkIndex]" = None
    ) -> None:
        self.store = store
        self.index = index

    def recover(
        self, retained: Sequence[BackupRecipe] = ()
    ) -> Tuple[RecoveryReport, List[BackupRecipe]]:
        """Run one full recovery pass.

        Args:
            retained: the durable recipes that must stay restorable; a
                GC roll-forward returns them remapped to the
                post-compaction layout (same order), otherwise they are
                returned unchanged.

        Returns:
            ``(report, recipes)`` — the recovery report and the retained
            recipes, remapped if a GC commit was rolled forward.
        """
        disk = self.store.disk
        t0 = disk.clock.now

        torn = self.store.truncate_torn()
        rolled_back, rolled_forward, remapped = self._reconcile_gc(retained)
        scanned, n_entries = self._rebuild_index()

        report = RecoveryReport(
            containers_scanned=scanned,
            torn_truncated=len(torn),
            index_entries_rebuilt=n_entries,
            gc_rolled_back=rolled_back,
            gc_rolled_forward=rolled_forward,
            recipes_remapped=len(remapped) if rolled_forward else 0,
            sim_seconds=disk.clock.now - t0,
        )
        self._record(report)
        return report, remapped

    # ------------------------------------------------------------------

    def _reconcile_gc(
        self, retained: Sequence[BackupRecipe]
    ) -> Tuple[bool, bool, List[BackupRecipe]]:
        """Roll a half-finished GC pass back or forward from the journal."""
        records = self.store.journal_records()
        marks = [r for r in records if r.get("kind") == "gc_mark"]
        commits = [r for r in records if r.get("kind") == "gc_commit"]

        rolled_back = False
        if len(marks) > len(commits):
            # the last mark never reached its commit: the sweep was
            # interrupted before the move map became durable -> roll back
            self.store.journal_pop(marks[-1])
            rolled_back = True

        rolled_forward = False
        remapped = list(retained)
        if commits:
            last = commits[-1]
            stale = [cid for cid in last.get("victims", ()) if self.store.has(cid)]
            if stale:
                # commit is durable but the removals/remap were not
                # applied -> roll forward from the journaled move map
                for cid in stale:
                    self.store.remove(cid)
                moved = {
                    (int(fp), int(cid)): int(new)
                    for (fp, cid), new in last.get("moved", {}).items()
                }
                remapped = remap_recipes(retained, moved)
                rolled_forward = True
        return rolled_back, rolled_forward, remapped

    def _rebuild_index(self) -> Tuple[int, int]:
        """Scan committed container metadata and rebuild the full index."""
        from repro.index.full_index import ChunkLocation

        store = self.store
        cids = store.cids()
        entries: Dict[int, ChunkLocation] = {}
        total_meta = 0
        for cid in cids:
            sealed = store.get(cid)
            total_meta += sealed.metadata_bytes
            loc = ChunkLocation(cid, -1)
            for fp in sealed.fingerprints:
                # ascending cid order: the newest physical copy wins,
                # matching what the pre-crash index pointed at
                entries[int(fp)] = loc
        if cids:
            # one sequential pass over the log's metadata sections
            store._read(total_meta, seeks=1)  # noqa: SLF001 - same package
        n = len(entries)
        if self.index is not None:
            self.index.load_recovered(entries)
            if n:
                # the rebuilt index is written back in one batch
                store._write(n * self.index.entry_bytes, seeks=1)  # noqa: SLF001
        return len(cids), n

    def _record(self, report: RecoveryReport) -> None:
        """Feed the ambient observability session (no-op when disabled)."""
        from repro.obs import get_active

        obs = get_active()
        if not obs.enabled:
            return
        reg = obs.registry
        reg.counter("recovery.passes").inc()
        reg.counter("recovery.torn_truncated").inc(report.torn_truncated)
        reg.counter("recovery.index_entries_rebuilt").inc(report.index_entries_rebuilt)
        if report.gc_rolled_back:
            reg.counter("recovery.gc_rollbacks").inc()
        if report.gc_rolled_forward:
            reg.counter("recovery.gc_rollforwards").inc()
        if obs.events.enabled:
            obs.events.emit(
                "recovery_pass",
                containers_scanned=report.containers_scanned,
                torn_truncated=report.torn_truncated,
                index_entries_rebuilt=report.index_entries_rebuilt,
                gc_rolled_back=report.gc_rolled_back,
                gc_rolled_forward=report.gc_rolled_forward,
                recipes_remapped=report.recipes_remapped,
                sim_seconds=report.sim_seconds,
            )
