"""The repository's benchmark: end-to-end and per-layer wall-clock metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload chunks-defrag --seed 2012 --seconds 35 --trace 0

One run starts one untimed warm-up process, then (untraced runs) a few
set-up probes, then about ``--seconds`` worth of measured passes -- each
a fresh process running the whole workload once (see ``workloads.py``).
``--trace 0`` reports the end-to-end metrics of the untraced passes;
``--trace 1`` alternates untraced and traced passes,
prints the per-layer table of a traced pass and reports the per-layer
metrics. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 0 only when every pass passed its output check and every pass of
the run agreed bit-for-bit on the model metrics and per-layer counts.

The parent imports nothing from the program, so a checkout without the
program (``src/repro``) fails fast without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
#: where a spilling store makes its temporary directory
SCRATCH = ROOT / ".bench_tmp"

DEFAULT_SEED = 2012
#: set-up probes per untraced run, besides the passes' own set-up
SETUP_PROBES = 4
#: nominal wall seconds of one pass of each workload, and the fewest
#: passes a run makes
PASS_SECONDS = {"bytes-defrag": 5.5, "chunks-defrag": 5.0, "ooc-revdedup": 3.5}
MIN_PASSES = 3
#: a worker still running this many seconds into the run is killed
DEADLINE_S = 175.0

#: name -> unit, in BENCHMARK.json order
END_TO_END = {
    "ingest_mb_s": "MB/s",
    "backup_p50_ms": "ms",
    "backup_p90_ms": "ms",
    "dedup_ratio": "x",
    "dedup_efficiency": "ratio",
    "ingest_sim_mb_s": "MB/s",
    "restore_sim_mb_s": "MB/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "chunking.cut_s": "s",
    "chunking.cut_mb_s": "MB/s",
    "chunking.fingerprint_s": "s",
    "chunking.chunks": "count",
    "chunking.mean_chunk_kib": "KiB",
    "segmenting.split_s": "s",
    "segmenting.segments": "count",
    "dedup.segment_s": "s",
    "dedup.segment_p50_us": "us",
    "dedup.segment_p99_us": "us",
    "dedup.end_backup_s": "s",
    "dedup.chunks_per_s": "1/s",
    "index.lookups": "count",
    "index.page_faults_per_klookup": "1/klookup",
    "index.negative_lookups": "count",
    "core.rewrite_frac": "ratio",
    "storage.containers_sealed": "count",
    "storage.stored_mb": "MB",
    "storage.spill_mb_written": "MB",
    "storage.spill_faults": "count",
    "storage.spill_mb_faulted": "MB",
    "maintenance.busy_s": "s",
    "maintenance.containers_rewritten": "count",
    "maintenance.mb_moved": "MB",
    "maintenance.mb_reclaimed": "MB",
    "restore.busy_s": "s",
    "restore.wall_mb_s": "MB/s",
    "restore.seeks_per_mib": "1/MiB",
    "restore.cache_hit_ratio": "ratio",
    "restore.container_reads": "count",
    "pipeline.oracle_s": "s",
    "workloads.gen_s": "s",
    "trace.overhead_frac": "ratio",
}

#: the layers predicted to dominate each workload's busy time (see
#: README.md); the traced run reports whether the measurement agrees
PREDICTED_DOMINANT = {
    "bytes-defrag": ("chunking",),
    "chunks-defrag": ("dedup",),
    "ooc-revdedup": ("maintenance", "storage", "restore"),
}


def percentile(samples: List[float], p: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


class Runner:
    """Spawns the worker processes of one run, one at a time."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.t0 = time.monotonic()
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ,
            PYTHONPATH=src if not path else src + os.pathsep + path,
            PYTHONHASHSEED="0",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    def spawn(self, *, traced: bool = False, setup_only: bool = False) -> Dict:
        request = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "traced": traced,
            "setup_only": setup_only,
            "tiny": self.args.scale == "tiny",
            "scratch": str(SCRATCH),
            "spawned": time.monotonic(),
        }
        timeout = max(1.0, self.t0 + DEADLINE_S - time.monotonic())
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), json.dumps(request)],
                cwd=ROOT,
                env=self.env,
                stdout=subprocess.PIPE,
                timeout=timeout,
                text=True,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            return {"error": f"worker exceeded {timeout:.0f} s"}
        lines = proc.stdout.strip().splitlines()
        if not lines:
            return {"error": f"worker exited {proc.returncode} without a record"}
        record = json.loads(lines[-1])
        record["traced"] = traced
        return record


def n_passes(workload: str, seconds: float) -> int:
    """Passes per run: a fixed count for a given workload and
    ``--seconds``, so the per-backup minimum means the same on every run
    and every commit."""
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))


def measure(runner: Runner) -> List[Dict]:
    """Warm up, probe set-up, then run the passes (a traced run
    alternates untraced and traced passes, starting untraced)."""
    args = runner.args
    runner.spawn(setup_only=True)  # warm-up: caches, bytecode; discarded
    records = [] if args.trace else [runner.spawn(setup_only=True) for _ in range(SETUP_PROBES)]
    for i in range(n_passes(args.workload, args.seconds)):
        if any("error" in r for r in records):
            break
        records.append(runner.spawn(traced=bool(args.trace) and i % 2 == 1))
    return records


def mb_s(passes: List[Dict]) -> float:
    return sum(p["logical_bytes"] for p in passes) / sum(p["timed_s"] for p in passes) / 1e6


def end_to_end(passes: List[Dict], setups: List[float]) -> Dict[str, float]:
    """Every pass of a run replays the same backups, so each backup's
    time is its fastest of the run's passes: interference from the rest
    of the machine only ever slows a backup down, and the minimum is the
    estimate it disturbs least."""
    backups = [min(times) for times in zip(*(p["backup_s"] for p in passes))]
    return {
        "ingest_mb_s": passes[0]["logical_bytes"] / sum(backups) / 1e6,
        "backup_p50_ms": 1e3 * percentile(backups, 50),
        "backup_p90_ms": 1e3 * percentile(backups, 90),
        **passes[0]["model"],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setups),
    }


def per_layer(passes: List[Dict], workload: str) -> Dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    layer = {
        name: statistics.median(p["layer"][name] for p in traced) for name in traced[0]["layer"]
    }
    overhead = 1 - mb_s(traced) / statistics.median(mb_s([p]) for p in untraced)
    print_table(traced[0], workload, overhead)
    return {**passes[0]["counts"], **layer, "trace.overhead_frac": overhead}


def print_table(record: Dict, workload: str, overhead: float) -> None:
    print(f"per-layer self time, {workload} (one traced pass, wall clock)")
    print(f"{'span':<30} {'calls':>7} {'self s':>9} {'share':>7}")
    for name, calls, secs, share in record["table"]:
        shown = f"{100 * share:6.1f}%" if share else "   (bench)"
        print(f"{name:<30} {calls:>7} {secs:>9.3f} {shown}")
    predicted = PREDICTED_DOMINANT[workload]
    measured = record["dominant"]
    verdict = "matches" if measured in predicted else "MISMATCH with"
    print(f"dominant layer: {measured} ({verdict} the prediction {'/'.join(predicted)})")
    print(f"tracing overhead on ingest_mb_s: {100 * overhead:+.1f}%")


def check_determinism(passes: List[Dict]) -> int:
    """Passes of one seed must agree exactly on the model metrics and the
    per-layer counts; returns the number of passes that do not."""
    ref = passes[0]
    bad = 0
    for i, p in enumerate(passes[1:], start=1):
        for key in ("model", "counts"):
            diff = sorted(k for k in ref[key] if ref[key][k] != p[key][k])
            if diff:
                print(f"pass {i} differs from pass 0 in {key}: {diff}", file=sys.stderr)
                bad += 1
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(PASS_SECONDS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="tiny runs each workload at smoke-test size",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    records = measure(Runner(args))
    try:
        SCRATCH.rmdir()
    except OSError:  # absent, or another run is still using it
        pass
    errors = [r["error"] for r in records if "error" in r]
    for error in errors:
        print(error, file=sys.stderr)
    passes = [r for r in records if "model" in r]
    attempted = sum(p["attempted"] for p in passes) or 1
    failed = sum(p["failed"] for p in passes) + len(errors)
    metrics: Dict[str, float] = {}
    if not errors:
        failed += check_determinism(passes)
        untraced = [p for p in passes if not p["traced"]]
        print(
            f"{len(passes)} passes, ingest_mb_s per pass: "
            + " ".join(f"{mb_s([p]):.2f}{'t' if p['traced'] else ''}" for p in passes),
            file=sys.stderr,
        )
        if args.trace:
            metrics = per_layer(passes, args.workload)
        else:
            metrics = end_to_end(untraced, [r["setup_s"] for r in records])
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units
                    if name in metrics},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
