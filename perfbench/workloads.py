"""The benchmark's three workloads and the measured pass that runs one.

A *pass* is one whole workload, run once in a fresh process: 100
backups of five users go through the system in a closed loop (one
client; the next backup starts when the previous one, and its
maintenance pass, returned), then every retained backup is restored,
then the outputs are checked. Only the calls into the program are
timed; input synthesis, the ground-truth oracle and the output check
run outside the timed region.

Workloads (the names other documents use):

* ``bytes-defrag`` -- real bytes, users round-robin with a shared pool:
  payload synthesis (untimed), then
  ``GearChunker.chunk(..., fingerprints="fast")`` -> content-defined
  segmenting -> DeFrag on an in-memory store. CDC and fingerprinting
  dominate.
* ``chunks-defrag`` -- the same schedule as chunk streams: chunking is
  bypassed, so the engine, index and store dominate.
* ``ooc-revdedup`` -- each user's series in turn, as chunk streams,
  through RevDedup with ``end_generation()`` after every backup over the
  retained backups, on a store that spills to disk under a small
  resident budget.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro._util import MIB
from repro.api import create_engine, create_reader, create_resources
from repro.chunking.base import ChunkStream
from repro.chunking.fingerprint import fingerprint_segments_fast
from repro.chunking.gear import GearChunker
from repro.dedup.base import DedupEngine, EngineResources
from repro.dedup.pipeline import GroundTruth
from repro.experiments.config import ExperimentConfig
from repro.segmenting.segmenter import ContentDefinedSegmenter
from repro.storage.store import StoreConfig
from repro.workloads.bytegen import chunk_payload
from repro.workloads.fs_model import ChunkIdAllocator, FileSystemModel
from repro.workloads.generators import BackupJob, group_fs_66

from spans import Tracer, dominant_layer, layer_table

__all__ = ["Workload", "WORKLOADS", "run_pass"]


@dataclass(frozen=True)
class Workload:
    """One workload: a scale preset shrunk by ``shrink``.

    Every size above the 8 KiB chunk -- the users' file systems, their
    files, the containers and the segments -- is divided by ``shrink``,
    while cache sizes stay counted in containers. That keeps the preset's
    geometry: files and containers per file system, chunks per segment,
    and cache to working set.
    """

    name: str
    engine: str
    preset: str
    shrink: float
    n_backups: int = 100
    byte_level: bool = False
    #: back up each user's whole series before the next user's, instead
    #: of round-robin
    sequential: bool = False
    #: newest backups of each user kept restorable (and passed to
    #: maintenance); None keeps every backup and runs no maintenance
    retain_per_user: Optional[int] = None
    #: sealed containers kept in RAM; None keeps the store in memory
    resident_containers: Optional[int] = None

    def tiny(self) -> "Workload":
        """The smoke-test size (1 MiB users): the same code path in
        about a second."""
        return replace(
            self,
            shrink=ExperimentConfig.by_name(self.preset).per_user_bytes / MIB,
            n_backups=10,
            retain_per_user=None if self.retain_per_user is None else 1,
            resident_containers=None if self.resident_containers is None else 2,
        )

    def config(self) -> ExperimentConfig:
        base = ExperimentConfig.by_name(self.preset)
        return base.with_(
            n_backups=self.n_backups,
            per_user_bytes=int(base.per_user_bytes / self.shrink),
            container_bytes=int(base.container_bytes / self.shrink),
        )

    def segmenter(self) -> ContentDefinedSegmenter:
        return ContentDefinedSegmenter(
            min_bytes=int(MIB / 2 / self.shrink),
            avg_bytes=int(MIB / self.shrink),
            max_bytes=int(2 * MIB / self.shrink),
        )

    def jobs(self, config: ExperimentConfig, seed: int) -> Iterator[BackupJob]:
        avg_file_bytes = int(FILE_BYTES / self.shrink)
        if not self.sequential:
            return group_fs_66(
                per_user_bytes=config.per_user_bytes,
                seed=seed,
                n_users=config.n_users,
                n_backups=config.n_backups,
                churn=config.churn_full,
                avg_file_bytes=avg_file_bytes,
            )
        return _series(config, seed, avg_file_bytes)


#: the file-system model's mean file size at an unshrunk preset
FILE_BYTES = 512 * 1024


def _series(config: ExperimentConfig, seed: int, avg_file_bytes: int) -> Iterator[BackupJob]:
    """Each user's full backups back to back, users one after another."""
    alloc = ChunkIdAllocator(seed)  # one allocator: users never collide
    per_user = config.n_backups // config.n_users
    for u in range(config.n_users):
        fs = FileSystemModel(
            seed=seed,
            initial_bytes=config.per_user_bytes,
            churn=config.churn_full,
            user=f"student{u}",
            allocator=alloc,
            avg_file_bytes=avg_file_bytes,
        )
        for g in range(per_user):
            if g:
                fs.evolve()
            yield BackupJob(u * per_user + g, fs.user, fs.full_backup())


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("bytes-defrag", "DeFrag", "small", shrink=8, byte_level=True),
        Workload("chunks-defrag", "DeFrag", "default", shrink=3),
        Workload(
            "ooc-revdedup",
            "RevDedup",
            "small",
            shrink=2,
            sequential=True,
            retain_per_user=2,
            resident_containers=8,
        ),
    )
}


@dataclass
class _Rig:
    """Everything built before the first timed call."""

    workload: Workload
    config: ExperimentConfig
    resources: EngineResources
    engine: DedupEngine
    segmenter: ContentDefinedSegmenter
    chunker: Optional[GearChunker]
    oracle: GroundTruth
    jobs: Iterator[BackupJob]
    job: BackupJob
    data: Optional[bytes]


def _set_up(workload: Workload, seed: int, spill_dir: Optional[str]) -> _Rig:
    config = workload.config()
    if spill_dir is not None:
        config = config.with_(
            store=StoreConfig(
                container_bytes=config.container_bytes,
                seal_seeks=0,
                cache_containers=config.restore_cache_containers,
                resident_containers=workload.resident_containers,
                spill_dir=spill_dir,
            )
        )
    resources = create_resources(config)
    jobs = workload.jobs(config, seed)
    job = next(jobs)  # builds the users' file-system models
    chunker = GearChunker() if workload.byte_level else None
    return _Rig(
        workload=workload,
        config=config,
        resources=resources,
        engine=create_engine(workload.engine, config, resources),
        segmenter=workload.segmenter(),
        chunker=chunker,
        oracle=GroundTruth(),
        jobs=jobs,
        job=job,
        data=chunk_payload(job.stream.fps, job.stream.sizes) if chunker else None,
    )


def run_pass(
    workload: Workload,
    seed: int,
    spawned: float,
    *,
    traced: bool = False,
    setup_only: bool = False,
    scratch: Path,
) -> Dict:
    """Set up, then (unless ``setup_only``) run one measured pass.

    Args:
        spawned: ``time.monotonic()`` when the parent started this
            process; set-up time runs from there to the first timed call.
        traced: record a span around every call into the program.
        scratch: where a spilling store makes its temporary directory.

    Returns the JSON-able raw record of the pass.
    """
    if workload.resident_containers is None:
        return _run(workload, seed, spawned, traced, setup_only, None)
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="spill-", dir=scratch) as spill_dir:
        return _run(workload, seed, spawned, traced, setup_only, spill_dir)


def _run(workload, seed, spawned, traced, setup_only, spill_dir) -> Dict:
    rig = _set_up(workload, seed, spill_dir)
    setup_s = time.monotonic() - spawned
    if setup_only:
        return {"setup_s": setup_s}
    gc.collect()
    gc.freeze()
    record = _measure(rig, Tracer(traced))
    record["setup_s"] = setup_s
    return record


def _digest(fps: np.ndarray, sizes: np.ndarray) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(fps, dtype=np.uint64).tobytes())
    h.update(np.ascontiguousarray(sizes, dtype=np.uint32).tobytes())
    return h.digest()


def _recipe_in_store(recipe, store) -> bool:
    """Every chunk of ``recipe`` is in the container its recipe names."""
    order = np.argsort(recipe.containers, kind="stable")
    cids = recipe.containers[order]
    fps = recipe.fingerprints[order]
    starts = np.flatnonzero(np.r_[True, cids[1:] != cids[:-1]])
    for a, b in zip(starts, np.r_[starts[1:], cids.size]):
        try:
            sealed = store.get(int(cids[a]))
        except KeyError:  # the recipe names a container the store lost
            return False
        if not np.isin(fps[a:b], sealed.fingerprints).all():
            return False
    return True


def _measure(rig: _Rig, tr: Tracer) -> Dict:
    workload, engine, segmenter, chunker = rig.workload, rig.engine, rig.segmenter, rig.chunker
    store = rig.resources.store
    job, data = rig.job, rig.data
    maintains = workload.retain_per_user is not None
    kept_by_user: Dict[str, List[int]] = {}
    retained_ids: List[int] = []  # indices into recipes, oldest first
    perf = time.perf_counter
    backup_s: List[float] = []
    recipes = []  # the newest recipe of every backup (remapped by maintenance)
    digests: List[bytes] = []
    maint_reports = []
    logical = removed = rewritten = true_dup = n_chunks = n_segments = 0
    sim_ingest_s = 0.0
    for i in range(workload.n_backups):
        tr.backup = i
        if maintains:
            kept = kept_by_user.setdefault(job.label, [])
            kept.append(i)
            del kept[: -workload.retain_per_user]
            retained_ids = sorted(j for ids in kept_by_user.values() for j in ids)
        t0 = perf()
        with tr.span("backup"):
            if chunker is None:
                stream = job.stream
            elif tr.enabled:
                # Chunker.chunk split into its two calls so each is spanned
                with tr.span("chunking.cut"):
                    cuts = chunker.cut_boundaries(data)
                with tr.span("chunking.fingerprint"):
                    fps = fingerprint_segments_fast(data, cuts)
                stream = ChunkStream(fps, np.diff(cuts).astype(np.uint32))
            else:
                stream = chunker.chunk(data, fingerprints="fast")
            with tr.span("segmenting.split"):
                bounds = segmenter.boundaries(stream)
                segments = segmenter.split_at(stream, bounds)
            with tr.span("dedup.begin_backup"):
                engine.begin_backup(job.generation, job.label)
            for segment in segments:
                with tr.span("dedup.segment"):
                    engine.process_segment(segment)
            with tr.span("dedup.end_backup"):
                report = engine.end_backup()
            recipes.append(report.recipe)
            if maintains:
                with tr.span("maintenance.end_generation"):
                    mrep, remapped = engine.end_generation([recipes[j] for j in retained_ids])
                for j, recipe in zip(retained_ids, remapped):
                    recipes[j] = recipe
                if mrep is not None:
                    maint_reports.append(mrep)
                    sim_ingest_s += mrep.elapsed_seconds
        backup_s.append(perf() - t0)

        # -- untimed: oracle, output bookkeeping, the next input --------
        with tr.span("pipeline.oracle"):
            true_dup += rig.oracle.observe(stream, bounds)[0]
        digests.append(_digest(stream.fps, stream.sizes))
        logical += report.logical_bytes
        removed += report.removed_dup_bytes
        rewritten += report.rewritten_dup_bytes
        sim_ingest_s += report.elapsed_seconds
        n_chunks += len(stream)
        n_segments += len(segments)
        if i + 1 < workload.n_backups:
            with tr.span("workloads.gen"):
                job = next(rig.jobs)
                if chunker is not None:
                    data = chunk_payload(job.stream.fps, job.stream.sizes)

    if not maintains:
        retained_ids = list(range(len(recipes)))
    retained = [recipes[j] for j in retained_ids]
    reader = create_reader(store, rig.config)
    bad_restores = 0
    restore_s = 0.0
    for i, recipe in zip(retained_ids, retained):
        tr.backup = i
        t0 = perf()
        with tr.span("restore.restore"):
            rr = reader.restore(recipe)
        restore_s += perf() - t0
        if rr.logical_bytes != recipe.total_bytes or rr.n_chunks != recipe.n_chunks:
            bad_restores += 1

    rs = reader.stats
    idx = rig.resources.index.stats
    st = store.stats
    spill = store.spill_stats
    model = {
        "dedup_ratio": sum(r.total_bytes for r in retained) / st.payload_bytes,
        "dedup_efficiency": removed / true_dup if true_dup else 1.0,
        "ingest_sim_mb_s": logical / sim_ingest_s / 1e6,
        "restore_sim_mb_s": rs.logical_bytes / rs.elapsed_seconds / 1e6,
    }
    counts = {
        "chunking.chunks": n_chunks if chunker is not None else 0,
        "chunking.mean_chunk_kib": logical / n_chunks / 1024 if chunker is not None else 0.0,
        "segmenting.segments": n_segments,
        "index.lookups": idx.lookups,
        "index.page_faults_per_klookup": 1000 * idx.page_faults / max(1, idx.lookups),
        "index.negative_lookups": idx.negative_lookups,
        "core.rewrite_frac": rewritten / logical,
        "storage.containers_sealed": st.containers_sealed,
        "storage.stored_mb": st.payload_bytes / 1e6,
        "storage.spill_mb_written": spill.bytes_spilled / 1e6,
        "storage.spill_faults": spill.faults,
        "storage.spill_mb_faulted": spill.bytes_faulted / 1e6,
        "maintenance.containers_rewritten": sum(m.containers_rewritten for m in maint_reports),
        "maintenance.mb_moved": sum(m.bytes_moved for m in maint_reports) / 1e6,
        "maintenance.mb_reclaimed": sum(m.bytes_reclaimed for m in maint_reports) / 1e6,
        "restore.seeks_per_mib": rs.seeks / (rs.logical_bytes / MIB),
        "restore.cache_hit_ratio": rs.cache_hits / (rs.cache_hits + rs.cache_misses),
        "restore.container_reads": rs.container_reads,
    }

    # -- output check: after every timed phase, since it faults
    # spilled containers back in and would disturb the resident LRU
    gc.collect()
    bad_backups = 0
    kept = set(retained_ids)
    for j, (recipe, digest) in enumerate(zip(recipes, digests)):
        ok = _digest(recipe.fingerprints, recipe.sizes) == digest
        if ok and j in kept:
            ok = _recipe_in_store(recipe, store)
        bad_backups += not ok

    record = {
        "logical_bytes": logical,
        "timed_s": sum(backup_s),
        "backup_s": backup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "attempted": workload.n_backups + len(retained),
        "failed": bad_backups + bad_restores,
        "model": model,
        "counts": counts,
    }
    if tr.enabled:
        record["layer"] = _layer_metrics(tr, logical, n_chunks, rs.logical_bytes, restore_s)
        record["table"] = layer_table(tr.spans)
        record["dominant"] = dominant_layer(tr.spans)
    return record


def _layer_metrics(tr: Tracer, logical: int, n_chunks: int, restored: int, restore_s: float):
    """The wall-clock per-layer metrics of a traced pass."""

    def busy(name: str) -> float:
        return float(sum(s.seconds for s in tr.named(name)))

    cut_s = busy("chunking.cut")
    segment_us = np.array([s.seconds for s in tr.named("dedup.segment")]) * 1e6
    segment_s = busy("dedup.segment")
    p50, p99 = np.percentile(segment_us, [50, 99])
    return {
        "chunking.cut_s": cut_s,
        "chunking.cut_mb_s": logical / 1e6 / cut_s if cut_s else 0.0,
        "chunking.fingerprint_s": busy("chunking.fingerprint"),
        "segmenting.split_s": busy("segmenting.split"),
        "dedup.segment_s": segment_s,
        "dedup.segment_p50_us": float(p50),
        "dedup.segment_p99_us": float(p99),
        "dedup.end_backup_s": busy("dedup.end_backup"),
        "dedup.chunks_per_s": n_chunks / segment_s,
        "maintenance.busy_s": busy("maintenance.end_generation"),
        "restore.busy_s": restore_s,
        "restore.wall_mb_s": restored / 1e6 / restore_s,
        "pipeline.oracle_s": busy("pipeline.oracle"),
        "workloads.gen_s": busy("workloads.gen"),
    }
