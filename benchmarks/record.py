"""Record the ingest and restore benchmarks into BENCH_*.json.

Run from the repo root::

    PYTHONPATH=src python benchmarks/record.py [--repeats N] [--out PATH]

Measures, in one sitting:

* the in-process three-engine group ingest (fig4's body),
* the end-to-end ``python -m repro fig4 --scale small`` command (which
  adds the fixed interpreter + numpy start-up floor that no ingest
  optimization can touch), and
* the fig6-small all-generation restore from the DDFS-Like layout
  through the default reader and the FAA + read-ahead reader (written
  to ``BENCH_restore.json``), and
* byte-level Gear CDC and the batch fingerprint fold over a fixed
  random buffer (written to ``BENCH_chunking.json`` via
  ``--chunking-out``; the exact 64-pass sweep now lives in the tests,
  so its rate, which the speed-floor gate compares against, is carried
  over from the record being replaced), and
* the sharded fingerprint index — 1-shard byte-identity plus routed
  N-shard batched-lookup throughput (written to ``BENCH_shard.json``
  via ``--shard-out``, including the absolute lookup floor the gate
  enforces).

The JSON it writes is the committed baseline that ``python -m repro
bench`` gates wall-clock regressions against. With ``--append-history``
it additionally appends one compact line of headline numbers (plus the
run's provenance manifest) to ``BENCH_history.jsonl`` — the perf
trajectory ``repro dash`` plots and ``repro bench`` annotates with a
drift direction.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench import (  # noqa: E402
    BASELINE_FILENAME,
    CHUNKING_BASELINE_FILENAME,
    HISTORY_FILENAME,
    MEMORY_BASELINE_FILENAME,
    RESTORE_BASELINE_FILENAME,
    SHARD_BASELINE_FILENAME,
    SHARD_LOOKUP_FLOOR_PER_S,
    append_history,
    history_record,
    load_chunking_baseline,
    run_bench,
    run_chunking_bench,
    run_memory_bench,
    run_restore_bench,
    run_shard_bench,
)


def time_command(args, repeats: int, src: "Path | None" = None) -> float:
    """Best-of wall-clock seconds for a subprocess command."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        subprocess.run(
            args,
            check=True,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            cwd=REPO_ROOT,
            env={
                "PYTHONPATH": str(src or (REPO_ROOT / "src")),
                "PATH": "/usr/bin:/bin",
            },
        )
        best = min(best, time.perf_counter() - t0)
    return best


# in-process group-workload timing, run inside an arbitrary checkout via
# ``python -c`` (so a pre-change reference tree can be measured in the
# same sitting; it only needs run_group_workload + ExperimentConfig.small)
_WORKLOAD_SNIPPET = (
    "import time\n"
    "from repro.experiments.common import run_group_workload, clear_memo\n"
    "from repro.experiments.config import ExperimentConfig\n"
    "cfg = ExperimentConfig.small()\n"
    "best = float('inf')\n"
    "for _ in range({repeats}):\n"
    "    clear_memo()\n"
    "    t0 = time.perf_counter()\n"
    "    run_group_workload(cfg)\n"
    "    best = min(best, time.perf_counter() - t0)\n"
    "print(best)\n"
)


def reference_commit(src: Path) -> "str | None":
    """Short commit hash of the checkout whose package root is ``src``,
    or None when it isn't a git checkout (the hash — unlike the often
    temporary checkout path — stays meaningful in the committed record)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            check=True,
            capture_output=True,
            text=True,
            cwd=src,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip() or None


def time_workload_in(src: Path, repeats: int) -> float:
    """Best-of in-process group-workload seconds for the checkout whose
    package root is ``src``."""
    out = subprocess.run(
        [sys.executable, "-c", _WORKLOAD_SNIPPET.format(repeats=max(1, repeats))],
        check=True,
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
    )
    return float(out.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default=str(REPO_ROOT / BASELINE_FILENAME))
    parser.add_argument(
        "--restore-out", default=str(REPO_ROOT / RESTORE_BASELINE_FILENAME)
    )
    parser.add_argument(
        "--skip-restore",
        action="store_true",
        help="do not (re)record the restore-path baseline",
    )
    parser.add_argument(
        "--chunking-out", default=str(REPO_ROOT / CHUNKING_BASELINE_FILENAME)
    )
    parser.add_argument(
        "--skip-chunking",
        action="store_true",
        help="do not (re)record the byte-level chunking baseline",
    )
    parser.add_argument(
        "--shard-out", default=str(REPO_ROOT / SHARD_BASELINE_FILENAME)
    )
    parser.add_argument(
        "--skip-shard",
        action="store_true",
        help="do not (re)record the sharded-index baseline",
    )
    parser.add_argument(
        "--skip-end-to-end",
        action="store_true",
        help="only record the in-process ingest measurement",
    )
    parser.add_argument(
        "--memory",
        action="store_true",
        help="also (re)record the bounded-RSS memory baseline: a full "
        "xlarge out-of-core run in a fresh subprocess; the committed "
        "budget becomes the measured peak plus headroom (slow: minutes)",
    )
    parser.add_argument(
        "--memory-out", default=str(REPO_ROOT / MEMORY_BASELINE_FILENAME)
    )
    parser.add_argument(
        "--memory-scale",
        default="xlarge",
        help="scale preset for --memory (default xlarge)",
    )
    parser.add_argument(
        "--memory-headroom",
        type=float,
        default=2.0,
        help="budget_rss_mb = measured peak RSS x this factor (default "
        "2.0: generous enough for allocator/platform variance, tight "
        "enough that an unbounded store blows through it)",
    )
    parser.add_argument(
        "--reference-src",
        default=None,
        help="package root (…/src) of another checkout to time in the "
        "same sitting — e.g. a pre-change tree — recorded under "
        "'reference' with speedups relative to it",
    )
    parser.add_argument(
        "--reference-label",
        default="pre-change reference",
        help="free-form description of the --reference-src checkout",
    )
    parser.add_argument(
        "--append-history",
        action="store_true",
        help="also append one compact line of headline numbers to the "
        "perf-trajectory history (see --history-out)",
    )
    parser.add_argument(
        "--history-out",
        default=str(REPO_ROOT / HISTORY_FILENAME),
        help="history file --append-history grows (default: the "
        "committed BENCH_history.jsonl)",
    )
    args = parser.parse_args()

    record = {
        "recorded_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "ingest": run_bench(repeats=args.repeats),
    }

    if not args.skip_end_to_end:
        cmd = [sys.executable, "-m", "repro", "fig4", "--scale", "small"]
        batch_s = time_command(cmd, args.repeats)
        record["fig4_small_end_to_end"] = {
            "command": "python -m repro fig4 --scale small",
            "batch_seconds": round(batch_s, 4),
            "note": (
                "end-to-end includes the fixed interpreter + numpy import "
                "floor (~0.2s) that ingest vectorization cannot remove; "
                "the ingest record above isolates the simulation itself"
            ),
        }

    if args.reference_src:
        ref_src = Path(args.reference_src).resolve()
        ref = {
            "label": args.reference_label,
            "workload_seconds": round(
                time_workload_in(ref_src, args.repeats), 4
            ),
        }
        commit = reference_commit(ref_src)
        if commit is not None:
            ref["commit"] = commit
        ref["workload_speedup"] = round(
            ref["workload_seconds"] / record["ingest"]["batch_seconds"], 2
        )
        if not args.skip_end_to_end:
            cmd = [sys.executable, "-m", "repro", "fig4", "--scale", "small"]
            ref["end_to_end_seconds"] = round(
                time_command(cmd, args.repeats, src=ref_src), 4
            )
            ref["end_to_end_speedup"] = round(
                ref["end_to_end_seconds"]
                / record["fig4_small_end_to_end"]["batch_seconds"],
                2,
            )
        record["reference"] = ref

    out = Path(args.out)
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    print(f"\nwrote {out}")

    restore_record = None
    if not args.skip_restore:
        restore_record = {
            "recorded_utc": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "restore": run_restore_bench(repeats=args.repeats),
        }
        restore_out = Path(args.restore_out)
        restore_out.write_text(json.dumps(restore_record, indent=2) + "\n")
        print(json.dumps(restore_record, indent=2))
        print(f"\nwrote {restore_out}")

    chunking_record = None
    if not args.skip_chunking:
        chunking_out = Path(args.chunking_out)
        chunking = run_chunking_bench(repeats=args.repeats)
        previous = load_chunking_baseline(chunking_out) or {}
        for key in ("exact_seconds", "exact_mb_per_s"):
            if key in previous.get("chunking", {}):
                chunking[key] = previous["chunking"][key]
        chunking_record = {
            "recorded_utc": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "chunking": chunking,
        }
        chunking_out.write_text(json.dumps(chunking_record, indent=2) + "\n")
        print(json.dumps(chunking_record, indent=2))
        print(f"\nwrote {chunking_out}")

    if not args.skip_shard:
        shard = run_shard_bench(repeats=args.repeats)
        shard["lookup_floor_per_s"] = SHARD_LOOKUP_FLOOR_PER_S
        shard_record = {
            "recorded_utc": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "shard": shard,
        }
        shard_out = Path(args.shard_out)
        shard_out.write_text(json.dumps(shard_record, indent=2) + "\n")
        print(json.dumps(shard_record, indent=2))
        print(f"\nwrote {shard_out}")

    memory_record = None
    if args.memory:
        probe = run_memory_bench(scale=args.memory_scale)
        memory_record = {
            "recorded_utc": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "budget_rss_mb": round(
                probe["peak_rss_mb"] * args.memory_headroom, 1
            ),
            "memory": probe,
        }
        memory_out = Path(args.memory_out)
        memory_out.write_text(json.dumps(memory_record, indent=2) + "\n")
        print(json.dumps(memory_record, indent=2))
        print(f"\nwrote {memory_out}")

    if args.append_history:
        ingest = record["ingest"]
        line = history_record(
            ingest=ingest,
            restore=restore_record["restore"] if restore_record else None,
            chunking=chunking_record["chunking"] if chunking_record else None,
            memory=memory_record["memory"] if memory_record else None,
            manifest=ingest.get("manifest"),
        )
        line["recorded_utc"] = record["recorded_utc"]
        history_path = append_history(line, Path(args.history_out))
        print(f"appended history line to {history_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
