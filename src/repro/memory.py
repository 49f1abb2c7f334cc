"""Bounded-RSS out-of-core driver (``python -m repro.memory``).

Runs a whole ingest-then-restore workload as a constant-memory
pipeline: backup jobs stream one at a time from the generator, sealed
containers spill to disk under a ``resident_containers`` budget,
finished recipes append to a :class:`~repro.storage.recipe_log
.RecipeLog` instead of accumulating in RAM, the ground-truth oracle
keeps its base array in a memory-mapped file, and restore loads one
recipe back at a time. The process's peak RSS is the headline number;
``BENCH_memory.json`` commits the budget it must stay under and
``--gate`` (run by the nightly workflow) enforces it.

The probe is meant to run as its own process so ``ru_maxrss``
reflects this workload and nothing else — that is why the gate is
``python -m repro.memory --gate`` rather than a call to
:func:`run_memory_probe` from a process that has already allocated
other things.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional

__all__ = ["run_memory_probe", "load_memory_budget", "main"]

#: default resident-container budget for the memory probe: enough for
#: ingest locality (DeFrag/DDFS touch recent containers), tiny against
#: the thousands an xlarge run seals
DEFAULT_RESIDENT = 64

#: how many of the newest backups the streaming-restore phase replays
RESTORE_LAST = 3


def run_memory_probe(
    scale: str = "xlarge",
    engine: str = "DeFrag",
    *,
    generations: Optional[int] = None,
    resident_containers: int = DEFAULT_RESIDENT,
    spill_dir: Optional[str] = None,
    restore_last: int = RESTORE_LAST,
    progress: bool = False,
) -> Dict:
    """Run the constant-memory pipeline; returns the JSON-able record.

    Args:
        scale: experiment preset name (see ``SCALE_NAMES``).
        engine: dedup engine display name.
        generations: truncate the workload to this many backups (the
            nightly smoke's knob); None runs the preset's full count.
        resident_containers: the store's resident budget.
        spill_dir: where container/recipe/oracle spill files live; a
            temporary directory (cleaned up afterwards) when None. The
            store carves its own ``store-<pid>-<seq>`` subdirectory out
            of this root, so concurrent probes (or parallel grid cells
            running out-of-core stores, ROADMAP item 5) can safely
            share one root.
        restore_last: newest backups replayed through the restore
            reader, one recipe at a time.
        progress: emit one stderr line per backup.
    """
    from repro.api import create_engine, create_reader, create_resources
    from repro.dedup.pipeline import GroundTruth, run_backup
    from repro.experiments.config import ExperimentConfig
    from repro.obs import get_active, peak_rss_mb
    from repro.segmenting.segmenter import ContentDefinedSegmenter
    from repro.storage.recipe_log import RecipeLog
    from repro.storage.store import StoreConfig
    from repro.workloads.generators import group_fs_66

    config = ExperimentConfig.by_name(scale)
    n_backups = config.n_backups if generations is None else int(generations)

    tmp = None
    if spill_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-spill-")
        spill_dir = tmp.name
    base = Path(spill_dir)
    base.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    try:
        store_config = StoreConfig(
            container_bytes=config.container_bytes,
            seal_seeks=0,
            cache_containers=config.restore_cache_containers,
            resident_containers=int(resident_containers),
            spill_dir=str(base / "containers"),
        )
        config = config.with_(n_backups=n_backups, store=store_config)
        resources = create_resources(config)
        eng = create_engine(engine, config, resources)
        segmenter = ContentDefinedSegmenter()
        gt = GroundTruth(spill_dir=str(base))
        recipe_log = RecipeLog(str(base / "recipes.log"))

        jobs = group_fs_66(
            per_user_bytes=config.per_user_bytes,
            seed=config.seed,
            n_users=config.n_users,
            n_backups=config.n_backups,
            churn=config.churn_full,
        )
        logical_bytes = 0
        dup_bytes = 0
        done = 0
        for job in jobs:
            report = run_backup(eng, job, segmenter, gt)
            recipe_log.append(report.recipe)
            logical_bytes += report.logical_bytes
            dup_bytes += report.true_dup_bytes or 0
            done += 1
            if progress:
                print(
                    f"[memory] backup {done}/{config.n_backups} "
                    f"({logical_bytes / 1e9:.2f} GB logical)",
                    file=sys.stderr,
                    flush=True,
                )
        ingest_sim_s = resources.disk.stats.total_time_s

        # streaming restore: recipes come back one at a time from the
        # log; the reader's assembly plan never materializes the stream
        reader = create_reader(resources.store, config)
        restore_seeks = 0
        restore_sim_s = 0.0
        for i in range(max(0, len(recipe_log) - restore_last), len(recipe_log)):
            recipe = recipe_log.load(i)
            rep = reader.restore(recipe)
            restore_seeks += rep.seeks
            restore_sim_s += rep.elapsed_seconds
            del recipe
        recipe_log.close()

        store = resources.store
        rss_mb = peak_rss_mb()
        obs = get_active()
        if obs.enabled:
            obs.registry.gauge("proc.peak_rss_mb").set(rss_mb)
        return {
            "kind": "memory",
            "scale": scale,
            "engine": engine,
            "n_backups": done,
            "n_users": config.n_users,
            "logical_bytes": int(logical_bytes),
            "true_dup_bytes": int(dup_bytes),
            "unique_fingerprints": gt.unique_fingerprints,
            "containers_sealed": store.stats.containers_sealed,
            "resident_containers": int(resident_containers),
            "spill": {
                "spilled": store.spill_stats.spilled,
                "evictions": store.spill_stats.evictions,
                "faults": store.spill_stats.faults,
                "bytes_spilled": store.spill_stats.bytes_spilled,
                "bytes_faulted": store.spill_stats.bytes_faulted,
            },
            "ingest_sim_seconds": round(ingest_sim_s, 6),
            "restore_backups": min(restore_last, done),
            "restore_seeks": int(restore_seeks),
            "restore_sim_seconds": round(restore_sim_s, 6),
            "wall_seconds": round(time.perf_counter() - t0, 3),
            "peak_rss_mb": round(rss_mb, 1),
        }
    finally:
        if tmp is not None:
            tmp.cleanup()


def load_memory_budget(path: str = "BENCH_memory.json") -> Optional[Dict]:
    """The committed memory budget, or None if absent."""
    p = Path(path)
    if not p.is_file():
        return None
    return json.loads(p.read_text())


def check_memory_gate(record: Dict, baseline: Dict) -> Optional[str]:
    """The bounded-RSS gate: peak RSS must stay under the committed
    budget (an absolute ceiling, not a regression factor — "bounded"
    is the property under test). Returns a failure message or None."""
    budget = float(baseline["budget_rss_mb"])
    peak = float(record["peak_rss_mb"])
    if peak <= 0:
        return "peak RSS unmeasurable on this platform; cannot gate"
    if peak > budget:
        return (
            f"peak RSS {peak:.1f} MB exceeds the committed budget "
            f"{budget:.1f} MB (BENCH_memory.json)"
        )
    return None


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.memory",
        description="bounded-RSS out-of-core ingest+restore probe",
    )
    parser.add_argument("--scale", default="xlarge")
    parser.add_argument("--engine", default="DeFrag")
    parser.add_argument(
        "--generations",
        type=int,
        default=None,
        help="truncate the workload to this many backups (smoke runs)",
    )
    parser.add_argument(
        "--resident-containers", type=int, default=DEFAULT_RESIDENT
    )
    parser.add_argument(
        "--spill-dir",
        default=None,
        help="spill directory (default: a temporary one, removed after)",
    )
    parser.add_argument(
        "--restore-last", type=int, default=RESTORE_LAST
    )
    parser.add_argument("--json-out", default=None, help="write the record here")
    parser.add_argument(
        "--gate",
        nargs="?",
        const="BENCH_memory.json",
        default=None,
        help="enforce the committed RSS budget (optional baseline path)",
    )
    parser.add_argument(
        "--progress", action="store_true", help="per-backup stderr progress"
    )
    args = parser.parse_args(argv)

    record = run_memory_probe(
        scale=args.scale,
        engine=args.engine,
        generations=args.generations,
        resident_containers=args.resident_containers,
        spill_dir=args.spill_dir,
        restore_last=args.restore_last,
        progress=args.progress,
    )
    text = json.dumps(record, indent=2, sort_keys=True)
    if args.json_out:
        Path(args.json_out).write_text(text + "\n")
    print(text)

    if args.gate is not None:
        baseline = load_memory_budget(args.gate)
        if baseline is None:
            print(f"memory gate: no baseline at {args.gate}", file=sys.stderr)
            return 2
        failure = check_memory_gate(record, baseline)
        if failure is not None:
            print(f"memory gate FAILED: {failure}", file=sys.stderr)
            return 1
        print(
            f"memory gate ok: {record['peak_rss_mb']:.1f} MB "
            f"<= {baseline['budget_rss_mb']:.1f} MB budget",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
