"""Command-line entry point: regenerate any figure or ablation.

Usage::

    python -m repro fig2 [--scale small|default|large] [--seed N]
    python -m repro fig4 --alpha 0.2
    python -m repro all --scale small --jobs 4
    python -m repro alpha-sweep --jobs 5
    python -m repro fig6 --restore-policy belady --faa-window 2048 --readahead
    python -m repro restore-ablation --scale small --jobs 6
    python -m repro trace fig4 --scale small --events out.jsonl
    python -m repro trace fig4 --scale small --perfetto trace.json
    python -m repro stats --last
    python -m repro dash --out dash.html
    python -m repro chaos --crash-points 200 --seed 7
    defrag-repro fig6            # console script, same thing

``--jobs N`` fans the experiment's independent cells (one engine x
config x alpha point each) across N worker processes; output is
byte-identical to ``--jobs 1`` (see DESIGN.md §9).
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.experiments.config import SCALE_NAMES, ExperimentConfig
from repro.experiments import suite

if TYPE_CHECKING:
    from repro.experiments.common import FigureResult

#: where ``trace`` drops its metrics snapshot for ``stats --last``
LAST_STATS_PATH = Path(".repro_stats.json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defrag-repro",
        description="Regenerate the SC'12 DeFrag paper's evaluation figures "
        "on the simulated substrate.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(suite.EXPERIMENTS)
        + ["all", "report", "trace", "stats", "dash", "chaos"],
        help="which figure/ablation to regenerate ('all' runs fig2..fig6; "
        "'report' renders everything as one markdown document; 'trace' "
        "reruns one figure with observability on; 'stats' prints the "
        "last trace's metrics snapshot; 'dash' renders a standalone "
        "HTML dashboard from the engine registry and trace snapshots; "
        "'chaos' sweeps seeded crash points through the fault-injection/"
        "recovery subsystem)",
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help="for 'trace': the figure/ablation to rerun under tracing "
        "(e.g. 'trace fig4')",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="library log level: -v INFO, -vv DEBUG (default WARNING)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="library log level ERROR (overrides -v)",
    )
    parser.add_argument(
        "--scale",
        default="default",
        choices=list(SCALE_NAMES),
        help="experiment scale preset (default: default); choices derive "
        "from the one preset registry in repro.experiments.config",
    )
    parser.add_argument("--seed", type=int, default=None, help="workload seed override")
    parser.add_argument(
        "--alpha", type=float, default=None, help="DeFrag SPL threshold override"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the experiment's cell grid (default 1 "
        "= serial; results are byte-identical either way)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell wall-clock budget when --jobs > 1 (a timed-out "
        "cell is retried once, then reported as failed)",
    )
    restore = parser.add_argument_group("restore options")
    restore.add_argument(
        "--restore-policy",
        default=None,
        choices=["lru", "lfu", "belady"],
        help="restore cache eviction policy (default lru; belady is the "
        "offline optimum computed from the recipe's future references)",
    )
    restore.add_argument(
        "--faa-window",
        type=int,
        default=None,
        metavar="CHUNKS",
        help="forward-assembly-area window in chunks (0 = off; each "
        "container section is read at most once per window)",
    )
    restore.add_argument(
        "--readahead",
        action="store_true",
        help="batch reads of physically adjacent containers into one "
        "priced positioning plus one sequential transfer",
    )
    parser.add_argument(
        "--extended-engines",
        action="store_true",
        help="also run the maintenance-phase engines (RevDedup, Hybrid) "
        "in fig4/fig6 and the restore ablation; the default engine set "
        "— and its committed golden tables — stays unchanged without "
        "this flag",
    )
    parser.add_argument(
        "--bytes",
        dest="byte_level",
        action="store_true",
        help="feed the group workload through the byte-level ingest "
        "path: real generated buffers chunked by the Gear skip-then-"
        "scan CDC and batch-fingerprinted (bytes -> CDC -> fingerprint "
        "-> engine -> containers)",
    )
    parser.add_argument(
        "--save",
        metavar="DIR",
        default=None,
        help="also write each result as JSON and CSV into DIR",
    )
    spill = parser.add_argument_group("out-of-core options")
    spill.add_argument(
        "--resident-containers",
        type=int,
        default=None,
        metavar="N",
        help="cap sealed containers held in RAM at N; the rest spill to "
        "disk and fault back on read (results stay byte-identical — "
        "spill IO is machine IO, never simulated IO)",
    )
    spill.add_argument(
        "--spill-dir",
        metavar="DIR",
        default=None,
        help="directory for spilled containers (default: an in-memory "
        "shim; requires --resident-containers)",
    )
    shard = parser.add_argument_group("sharding options")
    shard.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="shard the fingerprint index N ways behind the same "
        "interface (1 = degenerate wrapper, byte-identical to the "
        "unsharded substrate; also applies to the chaos scenario)",
    )
    chaos = parser.add_argument_group("chaos options")
    chaos.add_argument(
        "--crash-points",
        type=int,
        default=200,
        metavar="N",
        help="chaos: number of seeded crash points to sweep (default 200)",
    )
    chaos.add_argument(
        "--engine",
        default=None,
        metavar="NAME",
        help="chaos: run the scenario through this engine instead of "
        "DeFrag; engines with an out-of-line maintenance phase "
        "(RevDedup, Hybrid) automatically get maintenance steps — and "
        "crash points inside them — added to the sweep",
    )
    chaos.add_argument(
        "--spill",
        action="store_true",
        help="chaos: run the sweep over a spilling store (tight resident "
        "budget), exercising crash points in the spill/evict/fault-back "
        "paths",
    )
    obs = parser.add_argument_group("observability options")
    obs.add_argument(
        "--events",
        metavar="PATH",
        default=None,
        help="trace: also write the JSONL event stream (DeFrag decisions, "
        "cache evictions, phase spans, ...) to PATH",
    )
    obs.add_argument(
        "--last",
        action="store_true",
        help="stats: render the snapshot saved by the last 'trace' run "
        "(the default and only mode, spelled out)",
    )
    obs.add_argument(
        "--perfetto",
        metavar="PATH",
        default=None,
        help="trace: also export the run's lifecycle events as Chrome "
        "trace-event JSON viewable at ui.perfetto.dev",
    )
    dash = parser.add_argument_group("dash options")
    dash.add_argument(
        "--stats",
        metavar="PATH",
        action="append",
        default=None,
        help="dash: metrics snapshot(s) saved by 'repro trace' (repeat "
        "for several runs; default: .repro_stats.json when present)",
    )
    dash.add_argument(
        "--out",
        metavar="PATH",
        default="dash.html",
        help="dash: output HTML file (default dash.html)",
    )
    return parser


def _configure_logging(args: argparse.Namespace) -> None:
    """Root handler for the library's module-level loggers."""
    if args.quiet:
        level = logging.ERROR
    elif args.verbose >= 2:
        level = logging.DEBUG
    elif args.verbose == 1:
        level = logging.INFO
    else:
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _run_trace(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """``python -m repro trace <fig>``: rerun one figure with the
    observability session on, print its table plus the metrics dump, and
    persist the snapshot (and optionally the JSONL event stream)."""
    import json

    from repro.experiments import common
    from repro.obs import (
        JsonlEventSink,
        ListEventSink,
        Observability,
        build_manifest,
        obs_session,
        read_jsonl,
        write_chrome_trace,
    )
    from repro.obs.manifest import MANIFEST_EVENT

    if args.target is None:
        parser.error("trace needs a figure, e.g.: trace fig4")
    if args.target not in suite.EXPERIMENTS:
        parser.error(
            f"unknown trace target {args.target!r} "
            f"(choose from {', '.join(sorted(suite.EXPERIMENTS))})"
        )
    config = _make_config(args)
    manifest = build_manifest(
        config=config, scale=args.scale, target=args.target, jobs=args.jobs
    )
    # --perfetto without --events still needs the event stream: collect
    # it in memory instead of on disk
    sink = None
    if args.events is not None:
        sink = JsonlEventSink(args.events)
    elif args.perfetto is not None:
        sink = ListEventSink()
    # drop memoized workload runs so the figure actually executes (and
    # records) under this session, then again so later obs-off runs
    # don't reuse anything built during it
    common.clear_memo()
    try:
        with obs_session(Observability(events=sink)) as obs:
            if sink is not None:
                # provenance rides first in the stream
                obs.events.emit(MANIFEST_EVENT, **manifest.as_dict())
            results, errors = suite.run_suite(
                [args.target], config, jobs=args.jobs, timeout_s=args.cell_timeout
            )
    finally:
        common.clear_memo()
    failed = _print_results(args, [args.target], results, errors)
    print(obs.registry.render())
    LAST_STATS_PATH.write_text(
        json.dumps(
            {"manifest": manifest.as_dict(), "metrics": obs.registry.snapshot()},
            indent=2,
        )
    )
    print()
    if args.events is not None:
        print(f"wrote {sink.n_events} events to {sink.path}")
    if args.perfetto is not None:
        events = (
            sink.events
            if isinstance(sink, ListEventSink)
            else read_jsonl(args.events)
        )
        n_slices = write_chrome_trace(args.perfetto, events, manifest)
        print(
            f"wrote {n_slices} trace slices to {args.perfetto} "
            "(open at https://ui.perfetto.dev)"
        )
    print(f"metrics snapshot saved to {LAST_STATS_PATH} (view: repro stats --last)")
    return 1 if failed else 0


def _run_stats(args: argparse.Namespace) -> int:
    """``python -m repro stats --last``: render the saved snapshot."""
    import json

    from repro.obs import render_snapshot

    if not LAST_STATS_PATH.exists():
        print(f"no {LAST_STATS_PATH} found — run 'repro trace <fig>' first")
        return 1
    data = json.loads(LAST_STATS_PATH.read_text())
    # PR 7 wraps the snapshot with its provenance manifest; bare
    # snapshots from older checkouts still render
    manifest = data.get("manifest") if "metrics" in data else None
    if manifest:
        pairs = " ".join(f"{k}={v}" for k, v in manifest.items())
        print(f"== run ==\n{pairs}")
    print(render_snapshot(data.get("metrics", data)))
    return 0


def _run_dash(args: argparse.Namespace) -> int:
    """``python -m repro dash``: render the standalone HTML dashboard
    from the engine registry and trace snapshots."""
    from repro.obs.dash import build_dashboard

    stats = args.stats
    if stats is None:
        stats = [str(LAST_STATS_PATH)] if LAST_STATS_PATH.exists() else []
    missing = [p for p in stats if not Path(p).is_file()]
    for p in missing:
        print(f"warning: snapshot {p} not found, skipping")
    out = build_dashboard(args.out, stats_paths=stats)
    print(f"dashboard written to {out}")
    return 0


def _run_chaos(args: argparse.Namespace) -> int:
    """``python -m repro chaos``: crash-recovery sweep — N seeded crash
    points, each recovered and verified for zero data loss. Exits 0 only
    if every point recovers cleanly."""
    from repro.chaos import ChaosScenario, run_chaos

    seed = args.seed if args.seed is not None else 2012
    scenario = None
    overrides = {}
    if args.spill:
        # a tight budget over the chaos workload's container count, so
        # crash points land while most of the store is spilled
        overrides["resident_containers"] = 2
    if args.shards is not None and args.shards > 1:
        # adds the "shard" crash class: points that fire between
        # per-shard index flushes
        overrides["n_shards"] = args.shards
    if args.engine is not None:
        from repro.api import engine_info

        overrides["engine"] = args.engine
        if engine_info(args.engine).supports_maintenance:
            # crash points must be able to land inside the out-of-line
            # phase, so the scenario drives it after every backup
            overrides["maintenance_every"] = 1
    if overrides:
        scenario = ChaosScenario(seed=seed, **overrides)
    report = run_chaos(n_points=args.crash_points, seed=seed, scenario=scenario)
    print(report.render())
    if args.save is not None:
        outdir = Path(args.save)
        outdir.mkdir(parents=True, exist_ok=True)
        out = outdir / "chaos.json"
        out.write_text(report.to_json())
        print(f"chaos report saved to {out}")
    return 0 if report.ok else 1


def _print_results(
    args: argparse.Namespace,
    names: List[str],
    results: Dict[str, "FigureResult"],
    errors: Dict[str, str],
) -> bool:
    """Print each experiment's table (or its fatal error), save it when
    ``--save`` is given; True when any experiment or cell failed."""
    for name in names:
        if name in errors:
            print(f"FAILED {name}: {errors[name]}")
            print()
            continue
        result = results[name]
        print(result.table(fmt=suite.EXPERIMENTS[name].fmt))
        print()
        if args.save is not None:
            from repro.experiments.io import save_csv, save_json

            outdir = Path(args.save)
            outdir.mkdir(parents=True, exist_ok=True)
            save_json(result, outdir / f"{name}.json")
            save_csv(result, outdir / f"{name}.csv")
    return suite.suite_failed(results, errors)


def _make_config(args: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig.by_name(args.scale)
    if args.seed is not None:
        config = config.with_(seed=args.seed)
    if args.alpha is not None:
        config = config.with_(alpha=args.alpha)
    if args.byte_level:
        config = config.with_(byte_level=True)
    if args.extended_engines:
        config = config.with_(extended_engines=True)
    if args.restore_policy is not None:
        config = config.with_(restore_policy=args.restore_policy)
    if args.faa_window is not None:
        config = config.with_(restore_faa_window=args.faa_window)
    if args.readahead:
        config = config.with_(restore_readahead=True)
    if args.shards is not None:
        from repro.sharding import ShardConfig

        config = config.with_(shard=ShardConfig(n_shards=args.shards))
    if args.resident_containers is not None or args.spill_dir is not None:
        from repro.storage.store import StoreConfig

        # mirror create_resources' default store convention, plus the
        # out-of-core budget (StoreConfig validates the combination)
        config = config.with_(
            store=StoreConfig(
                container_bytes=config.container_bytes,
                seal_seeks=0,
                cache_containers=config.restore_cache_containers,
                resident_containers=args.resident_containers,
                spill_dir=args.spill_dir,
            )
        )
    return config


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args)
    if args.experiment == "trace":
        return _run_trace(args, parser)
    if args.experiment == "stats":
        return _run_stats(args)
    if args.experiment == "dash":
        return _run_dash(args)
    if args.experiment == "chaos":
        return _run_chaos(args)
    config = _make_config(args)
    if args.experiment == "report":
        from repro.experiments.report import generate_markdown

        text = generate_markdown(config, jobs=args.jobs)
        print(text)
        if args.save is not None:
            outdir = Path(args.save)
            outdir.mkdir(parents=True, exist_ok=True)
            (outdir / "report.md").write_text(text)
        return 0
    names = list(suite.ALL_FIGURES) if args.experiment == "all" else [args.experiment]
    results, errors = suite.run_suite(
        names, config, jobs=args.jobs, timeout_s=args.cell_timeout
    )
    return 1 if _print_results(args, names, results, errors) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
