"""Reference garbage collector: the chunk-at-a-time mark, sweep and remap.

An executable specification of :class:`repro.storage.gc.GarbageCollector`.
The product collector works on whole arrays; this one walks every retained
recipe chunk by chunk in Python, exactly as the collector first did. The
property suite in ``tests/properties/test_gc_oracle.py`` runs both over the
same random inputs and requires identical results.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro._util import check_fraction
from repro.storage.gc import _NULL_CTX, GarbageCollector, GCReport
from repro.storage.recipe import BackupRecipe


class OracleGarbageCollector(GarbageCollector):
    """:class:`GarbageCollector` with the chunk-by-chunk passes."""

    def live_bytes_per_container(
        self, retained: Sequence[BackupRecipe]
    ) -> Dict[int, int]:
        """Mark phase: payload bytes of each container referenced by any
        retained recipe (each distinct fingerprint counted once)."""
        live: Dict[int, Set[int]] = {}
        sizes: Dict[int, int] = {}
        for recipe in retained:
            for fp, size, cid in zip(
                recipe.fingerprints, recipe.sizes, recipe.containers
            ):
                fp, cid = int(fp), int(cid)
                if self.store.has(cid):
                    live.setdefault(cid, set()).add(fp)
                    sizes[fp] = int(size)
        return {
            cid: sum(sizes[fp] for fp in fps) for cid, fps in live.items()
        }

    def log_utilization(self, retained: Sequence[BackupRecipe]) -> float:
        """Live fraction of the sealed log."""
        live = self.live_bytes_per_container(retained)
        total = sum(
            self.store.get(cid).data_bytes
            for cid in list(self._sealed_cids())
        )
        return sum(live.values()) / total if total else 1.0

    def _sealed_cids(self) -> List[int]:
        return self.store.cids()

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

        Returns:
            ``(report, remapped_recipes)`` — the retained recipes
            rewritten to reference the post-compaction layout, in the
            same order.
        """
        check_fraction("min_utilization", min_utilization)
        util_before = self.log_utilization(retained)

        pre_moved: Dict[Tuple[int, int], int] = {}
        if redirect:
            for recipe in retained:
                for fp, cid in zip(recipe.fingerprints, recipe.containers):
                    fp, cid = int(fp), int(cid)
                    target = redirect.get(fp)
                    if target is not None and target != cid and self.store.has(target):
                        pre_moved[(fp, cid)] = target
            if pre_moved:
                retained = [self._remap(r, pre_moved) for r in retained]

        live_by_cid = self.live_bytes_per_container(retained)
        sealed = self._sealed_cids()

        # which fingerprints are live (referenced by any retained recipe)
        live_fps: Set[int] = set()
        for recipe in retained:
            live_fps.update(int(fp) for fp in recipe.fingerprints)

        forced: Set[int] = (
            {cid for (_fp, cid) in pre_moved} if rewrite_redirected else set()
        )
        victims: List[int] = []
        for cid in sealed:
            data = self.store.get(cid).data_bytes
            if data == 0:
                continue
            if cid in forced or live_by_cid.get(cid, 0) / data < min_utilization:
                victims.append(cid)
        victim_set = set(victims)

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
            if self.store.journaled:
                self.store.journal_append({"kind": "gc_mark", "victims": list(victims)})

            moved: Dict[Tuple[int, int], int] = dict(pre_moved)
            moved_fp: Dict[int, int] = {}  # fp -> new_cid (move each copy once)
            bytes_reclaimed = 0
            bytes_moved = 0
            for cid in victims:
                sealed_container = self.store.read_container(cid)  # charged read
                for fp, size in zip(
                    sealed_container.fingerprints, sealed_container.sizes
                ):
                    fp, size = int(fp), int(size)
                    if fp in live_fps:
                        if redirect is not None:
                            target = redirect.get(fp)
                            if (
                                target is not None
                                and target != cid
                                and target not in victim_set
                                and self.store.has(target)
                            ):
                                # a superseded copy: its redirect target
                                # already holds the chunk — reclaim it
                                bytes_reclaimed += size
                                moved[(fp, cid)] = target
                                continue
                        new_cid = moved_fp.get(fp)
                        if new_cid is None:
                            new_cid = self.store.append(fp, size)  # charged on seal
                            moved_fp[fp] = new_cid
                            bytes_moved += size
                            if self.index is not None:
                                from repro.index.full_index import ChunkLocation

                                old = self.index.peek(fp)
                                sid = old.sid if old is not None else -1
                                self.index.update(fp, ChunkLocation(new_cid, sid))
                        else:
                            # a second dead-duplicate copy of a live chunk:
                            # the already-moved copy serves it
                            bytes_reclaimed += size
                        moved[(fp, cid)] = new_cid
                    else:
                        bytes_reclaimed += size
            self.store.flush()

            # a redirect target may itself have been a victim (a canonical
            # copy stranded in a mostly-dead container): collapse
            # redirect -> compaction chains so every journaled mapping —
            # and every final recipe reference — lands on a survivor
            changed = bool(pre_moved)
            while changed:
                changed = False
                for (fp, cid), new_cid in list(moved.items()):
                    final = moved.get((fp, new_cid))
                    if final is not None and final != new_cid:
                        moved[(fp, cid)] = final
                        changed = True

            if self.store.journaled:
                self.store.journal_append(
                    {
                        "kind": "gc_commit",
                        "victims": list(victims),
                        "moved": dict(moved),
                    }
                )
            for cid in victims:
                self.store.remove(cid)

        remapped = [self._remap(recipe, moved) for recipe in retained]
        util_after = self.log_utilization(remapped)
        report = GCReport(
            containers_examined=len(sealed),
            containers_collected=len(victims),
            bytes_reclaimed=bytes_reclaimed,
            bytes_moved=bytes_moved,
            remapped_recipes=len(remapped),
            utilization_before=util_before,
            utilization_after=util_after,
            redirected_chunks=len(pre_moved),
        )
        self._record(report)
        return report, remapped

    def _remap(
        self, recipe: BackupRecipe, moved: Dict[Tuple[int, int], int]
    ) -> BackupRecipe:
        if not moved:
            return recipe
        cids = recipe.containers.copy()
        for i, (fp, cid) in enumerate(zip(recipe.fingerprints, recipe.containers)):
            new_cid = moved.get((int(fp), int(cid)))
            if new_cid is not None:
                cids[i] = new_cid
        return BackupRecipe(
            generation=recipe.generation,
            fingerprints=recipe.fingerprints,
            sizes=recipe.sizes,
            containers=cids,
            label=recipe.label,
        )
