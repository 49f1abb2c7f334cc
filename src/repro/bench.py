"""Wall-clock benchmarks of the ingest and restore paths.

The simulator's *reported* numbers are simulated time and cannot change
with Python-level optimizations; this module tracks the one thing that
does change — how long the simulator itself takes to run. It measures

* the fig4 three-engine group workload at the ``small`` scale, and
* the fig6 all-generation restore from a pre-ingested DDFS-Like store
  (the most fragmented layout) through the default reader and the
  FAA + read-ahead reader, and
* byte-level Gear CDC over a fixed random buffer (plus the batch
  fingerprint fold),

and compares each against a committed baseline so regressions fail
loudly. The chunking gate is double-sided: the cut must stay within 2x
of its own committed time *and* at least 5x faster than the committed
rate of the exact 64-pass sweep (the test oracle's algorithm). Used by
``python -m repro bench`` and ``benchmarks/record.py``; the committed
records live in ``BENCH_ingest.json``, ``BENCH_restore.json``, and
``BENCH_chunking.json`` at the repo root.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Dict, Optional

from repro.experiments.common import clear_memo, run_group_workload
from repro.experiments.config import ExperimentConfig

#: default committed-baseline location (repo root)
BASELINE_FILENAME = "BENCH_ingest.json"

#: committed baseline for the restore-path measurement
RESTORE_BASELINE_FILENAME = "BENCH_restore.json"

#: committed baseline for the byte-level chunking measurement
CHUNKING_BASELINE_FILENAME = "BENCH_chunking.json"

#: committed bounded-RSS budget for the out-of-core memory bench
MEMORY_BASELINE_FILENAME = "BENCH_memory.json"

#: committed baseline for the sharded-index measurement
SHARD_BASELINE_FILENAME = "BENCH_shard.json"

#: absolute floor on routed N-shard batched-lookup throughput
#: (fingerprints resolved per wall-clock second); the committed
#: baseline can raise it but the gate never accepts less than this
SHARD_LOOKUP_FLOOR_PER_S = 50_000.0

#: append-only perf trajectory: one compact JSON line per recorded run
#: (grown by ``benchmarks/record.py --append-history``, plotted by
#: ``repro dash``, annotated by ``repro bench``)
HISTORY_FILENAME = "BENCH_history.jsonl"

#: the headline metrics a history line tracks:
#: key -> (display label, unit, True when lower is better)
HISTORY_METRICS: Dict[str, tuple] = {
    "ingest_batch_seconds": ("ingest (batch)", "s", True),
    "restore_seconds": ("restore", "s", True),
    "chunking_mb_per_s": ("chunking", "MB/s", False),
    "peak_rss_mb": ("peak RSS (memory bench)", "MB", True),
}

#: relative change below this reads as noise, not drift
DRIFT_EPSILON = 0.02

#: a fresh measurement this many times slower than the committed
#: baseline's batch time fails the bench gate (2x absorbs machine noise;
#: a de-vectorized ingest path is ~8x)
REGRESSION_FACTOR = 2.0

#: the chunker must stay at least this many times faster (MB/s) than the
#: committed rate of the exact 64-pass reference sweep — the point of the
#: narrow-lane evaluation; falling below it means that structure broke
CHUNKING_SPEEDUP_FLOOR = 5.0


def measure_ingest(
    config: Optional[ExperimentConfig] = None, *, repeats: int = 3
) -> float:
    """Best-of-``repeats`` wall-clock seconds for the three-engine group
    ingest (the body of fig4), memo cleared per repetition."""
    cfg = config or ExperimentConfig.small()
    best = float("inf")
    for _ in range(max(1, repeats)):
        clear_memo()
        t0 = time.perf_counter()
        run_group_workload(cfg)
        t1 = time.perf_counter()
        best = min(best, t1 - t0)
    clear_memo()
    return best


#: maintenance-phase engines measured as advisory bench rows; the
#: regression gates stay keyed to the classic engines above
MAINTENANCE_BENCH_ENGINES = ("RevDedup", "Hybrid")


def measure_maintenance_ingest(
    name: str,
    config: Optional[ExperimentConfig] = None,
    *,
    repeats: int = 3,
) -> float:
    """Best-of-``repeats`` wall-clock seconds ingesting the author
    workload through one maintenance-capable engine with its out-of-line
    pass driven after every generation. Advisory — not gated."""
    from repro.api import create_engine, create_resources
    from repro.dedup.pipeline import run_workload_with_maintenance
    from repro.experiments.common import paper_segmenter
    from repro.workloads.generators import author_fs_20_full

    cfg = config or ExperimentConfig.small()
    best = float("inf")
    for _ in range(max(1, repeats)):
        res = create_resources(cfg)
        engine = create_engine(name, cfg, res)
        jobs = author_fs_20_full(
            fs_bytes=cfg.fs_bytes,
            seed=cfg.seed,
            n_generations=cfg.n_generations,
            churn=cfg.churn_full,
        )
        t0 = time.perf_counter()
        run_workload_with_maintenance(engine, jobs, paper_segmenter())
        best = min(best, time.perf_counter() - t0)
    return best


def measure_phases(config: Optional[ExperimentConfig] = None) -> Dict[str, float]:
    """One *untimed* observability-enabled run of the same workload: the
    per-engine per-phase *simulated*-seconds breakdown. Kept separate
    from :func:`measure_ingest` so the gated wall-clock numbers are
    always measured with observability off."""
    from repro.obs import Observability, Span, obs_session

    cfg = config or ExperimentConfig.small()
    clear_memo()
    try:
        with obs_session(Observability()) as obs:
            run_group_workload(cfg)
    finally:
        clear_memo()
    return {
        span.name: round(span.sim_seconds, 4)
        for span in obs.registry.by_kind(Span)
        if ".phase." in span.name
    }


def measure_parallel(
    config: Optional[ExperimentConfig] = None,
    *,
    jobs: int = 2,
    repeats: int = 3,
) -> float:
    """Best-of wall-clock seconds for the same three-engine group ingest
    decomposed into per-engine cells and run with ``jobs`` workers (the
    ``repro.parallel`` grid path, obs off)."""
    from repro.experiments.fig4 import cells
    from repro.parallel import run_grid

    cfg = config or ExperimentConfig.small()
    best = float("inf")
    for _ in range(max(1, repeats)):
        clear_memo()
        t0 = time.perf_counter()
        run_grid(cells(cfg), jobs=jobs)
        t1 = time.perf_counter()
        best = min(best, t1 - t0)
    clear_memo()
    return best


def run_bench(*, repeats: int = 3, jobs: Optional[int] = None) -> Dict:
    """Measure the ingest path and return the result record.

    Args:
        repeats: repetitions per measurement (best-of wins).
        jobs: when set (> 1), also measure the parallel grid path with
            that many workers and record the speedup over the serial
            measurement.
    """
    config = ExperimentConfig.small()
    result: Dict = {
        "benchmark": "fig4-small group ingest (DeFrag, DDFS-Like, SiLo-Like)",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": repeats,
        "batch_seconds": round(measure_ingest(config, repeats=repeats), 4),
    }
    if jobs is not None and jobs > 1:
        result["parallel_jobs"] = jobs
        result["parallel_seconds"] = round(
            measure_parallel(config, jobs=jobs, repeats=repeats), 4
        )
        result["parallel_speedup"] = round(
            result["batch_seconds"] / result["parallel_seconds"], 2
        )
    result["maintenance_engines"] = {
        name: round(measure_maintenance_ingest(name, config, repeats=repeats), 4)
        for name in MAINTENANCE_BENCH_ENGINES
    }
    result["phase_seconds"] = measure_phases(config)
    result["manifest"] = _bench_manifest()
    return result


def _bench_manifest() -> Dict:
    """Provenance block every bench record carries (no wall clock — the
    enclosing record already stamps ``recorded_utc`` where it matters)."""
    from repro.obs.manifest import build_manifest

    return build_manifest(wall_clock=False).as_dict()


def chunking_fixture(nbytes: int = 8 * 1024 * 1024, seed: int = 2012) -> bytes:
    """Deterministic random buffer for the chunking measurements."""
    from repro._util import rng_from

    rng = rng_from(seed, "bench-chunking")
    return rng.integers(0, 256, size=int(nbytes), dtype="uint8").tobytes()


def measure_chunking(data: bytes, *, repeats: int = 3) -> Dict:
    """Best-of-``repeats`` wall-clock seconds cutting ``data`` with the
    Gear chunker, plus the cut count."""
    from repro.chunking.gear import GearChunker

    chunker = GearChunker()
    best = float("inf")
    boundaries = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        boundaries = chunker.cut_boundaries(data)
        best = min(best, time.perf_counter() - t0)
    assert boundaries is not None
    return {
        "seconds": best,
        "mb_per_s": (len(data) / 1e6) / best,
        "n_chunks": len(boundaries) - 1,
    }


def run_chunking_bench(
    *, repeats: int = 3, nbytes: int = 8 * 1024 * 1024
) -> Dict:
    """Measure the byte-level chunking path and return the result record.

    The cut timings keep the committed record's ``seqcdc_*`` key names
    so both gates read ``BENCH_chunking.json`` as recorded.

    Args:
        repeats: repetitions per measurement (best-of wins).
        nbytes: buffer size; stays fixed so records are comparable.
    """
    from repro.chunking.fingerprint import fingerprint_segments_fast
    from repro.chunking.gear import GearChunker

    data = chunking_fixture(nbytes)
    fast = measure_chunking(data, repeats=repeats)
    result: Dict = {
        "benchmark": f"gear CDC over a {nbytes // (1024 * 1024)} MiB random buffer",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": repeats,
        "nbytes": nbytes,
        "seqcdc_seconds": round(fast["seconds"], 4),
        "seqcdc_mb_per_s": round(fast["mb_per_s"], 1),
        "n_chunks": fast["n_chunks"],
    }
    boundaries = GearChunker().cut_boundaries(data)
    t0 = time.perf_counter()
    fingerprint_segments_fast(data, boundaries)
    result["fingerprint_mb_per_s"] = round(
        (len(data) / 1e6) / (time.perf_counter() - t0), 1
    )
    result["manifest"] = _bench_manifest()
    return result


def load_chunking_baseline(path: Optional[Path] = None) -> Optional[Dict]:
    """The committed chunking baseline record, or None when absent."""
    p = Path(path) if path is not None else Path(CHUNKING_BASELINE_FILENAME)
    if not p.is_file():
        return None
    return json.loads(p.read_text())


def check_chunking_regression(
    result: Dict,
    baseline: Dict,
    factor: float = REGRESSION_FACTOR,
    speedup_floor: float = CHUNKING_SPEEDUP_FLOOR,
) -> Optional[str]:
    """None if the chunking measurement holds both gates, else a
    human-readable failure message.

    Gate 1 (regression): fresh cut time within ``factor`` of the
    committed cut time. Gate 2 (structure): fresh cut MB/s at least
    ``speedup_floor`` times the *committed* exact-sweep MB/s — the
    narrow-lane path's reason to exist.
    """
    rec = baseline.get("chunking", baseline)
    base = rec.get("seqcdc_seconds")
    now = result["seqcdc_seconds"]
    if base is not None and now > factor * base:
        return (
            f"chunking wall-clock regressed: {now:.3f}s vs committed "
            f"{base:.3f}s baseline (>{factor:.1f}x)"
        )
    exact_rate = rec.get("exact_mb_per_s")
    if exact_rate is not None:
        rate = result["seqcdc_mb_per_s"]
        if rate < speedup_floor * exact_rate:
            return (
                f"chunking at {rate:.1f} MB/s is below "
                f"{speedup_floor:.0f}x the committed exact-sweep rate "
                f"({exact_rate:.1f} MB/s)"
            )
    return None


def restore_fixture(
    config: Optional[ExperimentConfig] = None, engine: str = "DDFS-Like"
):
    """Ingest the fig6 author workload through ``engine`` once; returns
    ``(store, recipes)`` for the restore measurements (ingest cost is
    deliberately outside the timed region). Maintenance-capable engines
    get their out-of-line pass driven per generation, so the recipes
    reflect the post-maintenance layout."""
    from repro.api import create_engine, create_resources, engine_info
    from repro.dedup.pipeline import run_workload, run_workload_with_maintenance
    from repro.experiments.common import paper_segmenter
    from repro.workloads.generators import author_fs_20_full

    cfg = config or ExperimentConfig.small()
    res = create_resources(cfg)
    eng = create_engine(engine, cfg, res)
    jobs = author_fs_20_full(
        fs_bytes=cfg.fs_bytes,
        seed=cfg.seed,
        n_generations=cfg.n_generations,
        churn=cfg.churn_full,
    )
    driver = (
        run_workload_with_maintenance
        if engine_info(engine).supports_maintenance
        else run_workload
    )
    reports = driver(eng, jobs, paper_segmenter())
    return res.store, [r.recipe for r in reports]


def measure_restore(
    store,
    recipes,
    *,
    repeats: int = 3,
    passes: int = 20,
    policy: str = "lru",
    faa_window: int = 0,
    readahead: bool = False,
) -> Dict:
    """Best-of-``repeats`` wall-clock seconds restoring every generation
    ``passes`` times from a pre-ingested store, plus the simulated seek
    total of one pass — the restore analogue of :func:`measure_ingest`.

    A single all-generation restore at the small scale is ~1 ms, far too
    small for a stable 2x gate; ``passes`` inflates the timed region
    into tens of milliseconds without changing what is measured (each
    restore builds a fresh client cache, so passes are independent).
    """
    from repro.restore.reader import RestoreReader

    passes = max(1, passes)
    best = float("inf")
    seeks = 0
    for _ in range(max(1, repeats)):
        reader = RestoreReader(
            store, policy=policy, faa_window=faa_window, readahead=readahead
        )
        t0 = time.perf_counter()
        for _ in range(passes):
            for recipe in recipes:
                reader.restore(recipe)
        best = min(best, time.perf_counter() - t0)
        seeks = reader.stats.seeks // passes
    return {"seconds": best, "sim_seeks": seeks}


def run_restore_bench(*, repeats: int = 3, faa: bool = True) -> Dict:
    """Measure the restore path and return the result record.

    Args:
        repeats: repetitions per measurement (best-of wins).
        faa: also measure the FAA + read-ahead reader (the ``--quick``
            CLI mode skips it).
    """
    config = ExperimentConfig.small()
    store, recipes = restore_fixture(config)
    default = measure_restore(store, recipes, repeats=repeats)
    result: Dict = {
        "benchmark": "fig6-small DDFS-Like all-generation restore",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": repeats,
        "restore_seconds": round(default["seconds"], 4),
        "sim_seeks": default["sim_seeks"],
    }
    if faa:
        assembled = measure_restore(
            store,
            recipes,
            repeats=repeats,
            faa_window=2048,
            readahead=True,
        )
        result["faa_seconds"] = round(assembled["seconds"], 4)
        result["faa_sim_seeks"] = assembled["sim_seeks"]
        result["sim_seek_reduction"] = round(
            default["sim_seeks"] / max(assembled["sim_seeks"], 1), 2
        )
    result["maintenance_restore"] = {}
    for name in MAINTENANCE_BENCH_ENGINES:
        m_store, m_recipes = restore_fixture(config, engine=name)
        measured = measure_restore(m_store, m_recipes, repeats=repeats)
        result["maintenance_restore"][name] = {
            "restore_seconds": round(measured["seconds"], 4),
            "sim_seeks": measured["sim_seeks"],
        }
    result["manifest"] = _bench_manifest()
    return result


def load_restore_baseline(path: Optional[Path] = None) -> Optional[Dict]:
    """The committed restore baseline record, or None when absent."""
    p = Path(path) if path is not None else Path(RESTORE_BASELINE_FILENAME)
    if not p.is_file():
        return None
    return json.loads(p.read_text())


def check_restore_regression(
    result: Dict, baseline: Dict, factor: float = REGRESSION_FACTOR
) -> Optional[str]:
    """None if ``result`` is within ``factor`` of the baseline's restore
    time, else a human-readable failure message."""
    base = baseline.get("restore", baseline).get("restore_seconds")
    if base is None:
        return None
    now = result["restore_seconds"]
    if now > factor * base:
        return (
            f"restore wall-clock regressed: {now:.3f}s vs committed "
            f"{base:.3f}s baseline (>{factor:.1f}x)"
        )
    return None


def load_baseline(path: Optional[Path] = None) -> Optional[Dict]:
    """The committed baseline record, or None when absent."""
    p = Path(path) if path is not None else Path(BASELINE_FILENAME)
    if not p.is_file():
        return None
    return json.loads(p.read_text())


# -- bounded-RSS memory bench ------------------------------------------------


def run_memory_bench(
    scale: str = "xlarge",
    *,
    generations: Optional[int] = None,
    resident_containers: int = 64,
    timeout_s: float = 3600.0,
) -> Dict:
    """Run the out-of-core probe in a **fresh subprocess** and return its
    record (the dict ``python -m repro.memory`` prints).

    A subprocess is load-bearing, not a convenience: ``ru_maxrss`` is a
    process-lifetime high-water mark, so measuring in-process would
    report whatever the parent had already allocated (other benches,
    memoized workloads) instead of the out-of-core pipeline's footprint.
    """
    import subprocess
    import sys

    cmd = [
        sys.executable,
        "-m",
        "repro.memory",
        "--scale",
        scale,
        "--resident-containers",
        str(int(resident_containers)),
    ]
    if generations is not None:
        cmd += ["--generations", str(int(generations))]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=timeout_s
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"memory probe failed (exit {proc.returncode}):\n{proc.stderr}"
        )
    record = json.loads(proc.stdout)
    record["manifest"] = _bench_manifest()
    return record


def load_memory_baseline(path: Optional[Path] = None) -> Optional[Dict]:
    """The committed memory budget record, or None when absent."""
    p = Path(path) if path is not None else Path(MEMORY_BASELINE_FILENAME)
    if not p.is_file():
        return None
    return json.loads(p.read_text())


def check_memory_regression(result: Dict, baseline: Dict) -> Optional[str]:
    """The bounded-RSS gate (absolute budget, not a regression factor —
    see :func:`repro.memory.check_memory_gate`)."""
    from repro.memory import check_memory_gate

    return check_memory_gate(result, baseline)


def run_shard_bench(
    *,
    repeats: int = 3,
    n_shards: int = 4,
    n_entries: int = 50_000,
    batch: int = 4096,
) -> Dict:
    """Measure the sharded index and return the result record.

    Two halves, matching the two halves of the gate:

    * **identity** — a deterministic mixed lookup/insert workload is
      driven through a plain ``DiskChunkIndex`` and a 1-shard
      ``ShardedChunkIndex`` built with identical parameters; answers,
      stats, and the simulated clock must match exactly
      (``one_shard_identical``).
    * **throughput** — ``n_entries`` fingerprints are inserted into an
      ``n_shards``-shard index, then resolved in ``batch``-sized
      ``lookup_many`` calls (half hits, half misses); best-of
      ``repeats`` wall-clock gives ``lookup_per_s``.
    """
    from repro._util.rng import rng_from
    from repro.index.full_index import ChunkLocation, DiskChunkIndex
    from repro.sharding import ShardedChunkIndex
    from repro.storage.disk import DiskModel

    config = ExperimentConfig.small()

    # -- identity half ---------------------------------------------------
    rng = rng_from(2012, "shard-bench")
    fps = [int(x) for x in rng.integers(1, 1 << 60, size=4096)]

    def drive(index) -> tuple:
        answers = []
        for i in range(0, len(fps), 256):
            chunk = fps[i : i + 256]
            answers.append(
                [loc is not None for loc in index.lookup_many(chunk)]
            )
            index.insert_many(
                chunk, [ChunkLocation(i % 7, j) for j in range(len(chunk))]
            )
            index.flush()
        answers.append([loc is not None for loc in index.lookup_many(fps)])
        return answers, dict(vars(index.stats)), index.disk.stats.total_time_s

    plain = drive(DiskChunkIndex(DiskModel(profile=config.disk), expected_entries=n_entries))
    one = drive(
        ShardedChunkIndex.create(
            DiskModel(profile=config.disk), n_shards=1, expected_entries=n_entries
        )
    )
    one_shard_identical = plain == one

    # -- throughput half -------------------------------------------------
    sharded = ShardedChunkIndex.create(
        DiskModel(profile=config.disk),
        n_shards=n_shards,
        expected_entries=n_entries,
    )
    rng = rng_from(2012, "shard-bench-load")
    load = [int(x) for x in rng.integers(1, 1 << 60, size=n_entries)]
    for i in range(0, n_entries, batch):
        chunk = load[i : i + batch]
        sharded.insert_many(chunk, [ChunkLocation(0, j) for j in range(len(chunk))])
    sharded.flush()
    probes = load[: n_entries // 2] + [
        int(x) for x in rng.integers(1 << 61, 1 << 62, size=n_entries // 2)
    ]
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        hits = 0
        for i in range(0, len(probes), batch):
            for loc in sharded.lookup_many(probes[i : i + batch]):
                if loc is not None:
                    hits += 1
        best = min(best, time.perf_counter() - t0)
    assert hits == n_entries // 2

    return {
        "benchmark": f"{n_shards}-shard routed index, {n_entries} entries",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": repeats,
        "n_shards": n_shards,
        "n_entries": n_entries,
        "batch": batch,
        "one_shard_identical": bool(one_shard_identical),
        "lookup_seconds": round(best, 4),
        "lookup_per_s": round(len(probes) / best, 1),
        "fill_balance": round(
            sharded.router.fill_balance(sharded.shard_fill()), 4
        ),
        "manifest": _bench_manifest(),
    }


def load_shard_baseline(path: Optional[Path] = None) -> Optional[Dict]:
    """The committed shard baseline record, or None when absent."""
    p = Path(path) if path is not None else Path(SHARD_BASELINE_FILENAME)
    if not p.is_file():
        return None
    return json.loads(p.read_text())


def check_shard_regression(
    result: Dict,
    baseline: Dict,
    factor: float = REGRESSION_FACTOR,
    floor: float = SHARD_LOOKUP_FLOOR_PER_S,
) -> Optional[str]:
    """None if the shard measurement holds all three gates, else a
    failure message.

    Gate 1 (identity): the 1-shard wrapper must be byte-identical to
    the plain index — answers, stats, and simulated clock. Gate 2
    (floor): routed lookup throughput must clear the absolute
    ``floor`` (the baseline may pin a higher one). Gate 3 (regression):
    lookup wall-clock within ``factor`` of the committed baseline.
    """
    if not result.get("one_shard_identical", False):
        return (
            "1-shard ShardedChunkIndex diverged from the plain "
            "DiskChunkIndex (answers, stats, or simulated clock)"
        )
    rec = baseline.get("shard", baseline)
    floor = max(floor, float(rec.get("lookup_floor_per_s", 0.0)))
    rate = float(result["lookup_per_s"])
    if rate < floor:
        return (
            f"routed lookup throughput {rate:.0f}/s is below the "
            f"{floor:.0f}/s floor"
        )
    base = rec.get("lookup_seconds")
    now = result["lookup_seconds"]
    if base is not None and now > factor * base:
        return (
            f"sharded lookup wall-clock regressed: {now:.3f}s vs "
            f"committed {base:.3f}s baseline (>{factor:.1f}x)"
        )
    return None


def reference_summary(baseline: Dict) -> str:
    """One line describing the committed baseline's reference
    measurement, or a warning when the baseline predates the reference
    block (older records lack it; that's not an error)."""
    ref = baseline.get("reference")
    if not isinstance(ref, dict):
        return (
            "note: baseline has no reference block "
            "(re-record with benchmarks/record.py to add one)"
        )
    label = ref.get("label", "reference")
    commit = ref.get("commit")
    where = f" @ {commit}" if commit else ""
    speedup = ref.get("workload_speedup")
    vs = f", workload speedup {speedup}x vs it" if speedup is not None else ""
    return f"reference: {label}{where}{vs}"


def check_regression(
    result: Dict, baseline: Dict, factor: float = REGRESSION_FACTOR
) -> Optional[str]:
    """None if ``result`` is within ``factor`` of the baseline's batch
    time, else a human-readable failure message."""
    base = baseline.get("ingest", baseline).get("batch_seconds")
    if base is None:
        return None
    now = result["batch_seconds"]
    if now > factor * base:
        return (
            f"ingest wall-clock regressed: {now:.3f}s vs committed "
            f"{base:.3f}s baseline (>{factor:.1f}x)"
        )
    return None


# -- perf-trajectory history ------------------------------------------------


def history_record(
    ingest: Optional[Dict] = None,
    restore: Optional[Dict] = None,
    chunking: Optional[Dict] = None,
    memory: Optional[Dict] = None,
    manifest: Optional[Dict] = None,
) -> Dict:
    """One compact history line from full bench records.

    Only the headline numbers survive (``HISTORY_METRICS`` plus a few
    secondary figures) so the file stays a few hundred bytes per run
    while the dashboard can still plot every trajectory.
    """
    out: Dict = {}
    if manifest:
        out.update(manifest)
    if ingest:
        out["ingest_batch_seconds"] = ingest.get("batch_seconds")
    if restore:
        out["restore_seconds"] = restore.get("restore_seconds")
        if "faa_seconds" in restore:
            out["restore_faa_seconds"] = restore["faa_seconds"]
    if chunking:
        out["chunking_mb_per_s"] = chunking.get("seqcdc_mb_per_s")
        if "speedup" in chunking:
            out["chunking_speedup"] = chunking["speedup"]
    if memory:
        out["peak_rss_mb"] = memory.get("peak_rss_mb")
        if "logical_bytes" in memory:
            out["memory_logical_bytes"] = memory["logical_bytes"]
    return out


def load_history(path: Optional[Path] = None) -> list:
    """Every history line, oldest first ([] when the file is absent).
    Malformed lines are skipped — the file is append-only and a crashed
    append must not brick every later reader."""
    p = Path(path) if path is not None else Path(HISTORY_FILENAME)
    if not p.is_file():
        return []
    out = []
    for line in p.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict):
            out.append(record)
    return out


def append_history(record: Dict, path: Optional[Path] = None) -> Path:
    """Append one record as a single JSON line; returns the file path."""
    p = Path(path) if path is not None else Path(HISTORY_FILENAME)
    with p.open("a") as fh:
        json.dump(record, fh, separators=(",", ":"))
        fh.write("\n")
    return p


def drift_summary(
    current: Dict, history: list, epsilon: float = DRIFT_EPSILON
) -> list:
    """Human-readable drift lines: each headline metric in ``current``
    (a dict of history-record keys) against the most recent history
    entry that has it. Direction words respect the metric's polarity
    (lower seconds good, higher MB/s good); changes within ``epsilon``
    read as steady. Empty when there is no history to compare against.
    """
    lines = []
    for key, (label, unit, lower_is_better) in HISTORY_METRICS.items():
        now = current.get(key)
        if now is None:
            continue
        prev = None
        for record in reversed(history):
            if record.get(key) is not None:
                prev = record[key]
                break
        if not prev:
            continue
        rel = (now - prev) / prev
        if abs(rel) <= epsilon:
            direction = "steady"
        elif (rel < 0) == lower_is_better:
            direction = "improving"
        else:
            direction = "regressing"
        lines.append(
            f"{label}: {now:g}{unit} vs {prev:g}{unit} last recorded "
            f"({rel:+.1%}, {direction})"
        )
    return lines
