"""Markdown report generation: one command, the whole evaluation.

``python -m repro report --scale small --save out/`` regenerates every
figure, renders a single self-contained markdown document (tables +
headline comparisons + run configuration), and optionally archives the
raw series alongside it. EXPERIMENTS.md's numbers were produced this way.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro._util import MIB
from repro.experiments.common import FigureResult, clear_memo
from repro.experiments.config import ExperimentConfig
from repro.experiments.suite import ALL_FIGURES, EXPERIMENTS, run_suite
from repro.obs import (
    Histogram,
    MetricsRegistry,
    Observability,
    Span,
    TimeSeries,
    build_manifest,
    chunking_summary,
    obs_session,
)
from repro.parallel import GridError


def _markdown_table(result: FigureResult, fmt: str) -> str:
    names = list(result.series)
    lines = [
        "| " + result.x_label + " | " + " | ".join(names) + " |",
        "|" + "---|" * (len(names) + 1),
    ]
    for i, xv in enumerate(result.x):
        cells = [fmt.format(result.series[n][i]) for n in names]
        lines.append(f"| {xv} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def _config_section(config: ExperimentConfig) -> str:
    return "\n".join(
        [
            "## Configuration",
            "",
            f"- seed: {config.seed}",
            f"- author FS: {config.fs_bytes // MIB} MiB x {config.n_generations} generations",
            f"- group: {config.n_users} users x {config.per_user_bytes // MIB} MiB, "
            f"{config.n_backups} backups",
            f"- alpha: {config.alpha}",
            f"- disk: {config.disk.name} "
            f"({config.disk.seek_time_s * 1e3:.0f} ms seek, "
            f"{config.disk.seq_bandwidth / 1e6:.0f} MB/s)",
            f"- DDFS cache: {config.cache_containers} containers, "
            f"read-ahead {config.prefetch_ahead}",
            f"- SiLo: {config.silo_block_bytes // MIB} MiB blocks, "
            f"{config.silo_cache_blocks}-block cache, "
            f"{config.silo_similarity_capacity}-entry similarity budget",
        ]
    )


def _provenance_section(config: ExperimentConfig) -> str:
    """Run identity (manifest without wall-clock fields — the report is
    under the byte-identity contract, so two runs of the same checkout
    and config must render the same bytes)."""
    manifest = build_manifest(config=config, wall_clock=False)
    lines = ["## Provenance", ""]
    lines += [f"- {k}: `{v}`" for k, v in manifest.deterministic_dict().items()]
    return "\n".join(lines)


def _histogram_table(hist: Histogram) -> str:
    lines = ["| bucket | count |", "|---|---|"]
    for label, n in hist.buckets():
        lines.append(f"| {label} | {n} |")
    lines.append(f"| **total** (mean {hist.mean:.3f}) | {hist.count} |")
    return "\n".join(lines)


def _diagnostics_section(registry: MetricsRegistry) -> str:
    """The observability rollup: per-phase span totals plus the SPL and
    prefetch-yield histograms recorded while the figures ran."""
    from repro.obs.spans import INGEST_PHASES

    lines: List[str] = [
        "## Diagnostics",
        "",
        "Recorded by the observability layer (`repro.obs`) while the "
        "figures above ran. All durations are *simulated* seconds.",
    ]
    phase_cols = tuple(INGEST_PHASES) + ("segment",)
    phase_rows: Dict[str, Dict[str, Span]] = {}
    other: List[Span] = []
    for span in registry.by_kind(Span):
        engine, _, phase = span.name.partition(".phase.")
        if phase in phase_cols:
            phase_rows.setdefault(engine, {})[phase] = span
        else:
            other.append(span)
    if phase_rows:
        lines += ["", "### Per-phase simulated time (seconds)", ""]
        lines.append("| engine | " + " | ".join(phase_cols) + " |")
        lines.append("|" + "---|" * (len(phase_cols) + 1))
        for engine in sorted(phase_rows):
            row = phase_rows[engine]
            cells = [
                f"{row[c].sim_seconds:.3f}" if c in row else "-" for c in phase_cols
            ]
            lines.append(f"| {engine} | " + " | ".join(cells) + " |")
    if other:
        lines += ["", "### Other spans", "", "| span | count | sim seconds |", "|---|---|---|"]
        for span in other:
            lines.append(f"| {span.name} | {span.count} | {span.sim_seconds:.3f} |")
    chunking = chunking_summary(registry.snapshot())
    if chunking:
        lines += [
            "",
            "### Chunking (byte-level CDC)",
            "",
            "| figure | value |",
            "|---|---|",
        ]
        lines += [f"| {k} | {v} |" for k, v in chunking]
    for hist in registry.by_kind(Histogram):
        tail = hist.name.rpartition(".")[2]
        if hist.name.endswith(".spl"):
            title = f"{hist.name} — SPL per referenced stored segment"
        elif tail == "prefetch_yield":
            title = f"{hist.name} — cache hits per prefetched unit"
        elif hist.name == "restore.seeks_per_mib":
            title = "restore.seeks_per_mib — container fetches per restored MiB"
        else:
            continue
        if not hist.count:
            continue
        lines += ["", f"### {title}", "", _histogram_table(hist)]
    series = registry.by_kind(TimeSeries)
    if series:
        lines += [
            "",
            "### Time series (trajectories over simulated time)",
            "",
            "| series | samples | first | last | min | max |",
            "|---|---|---|---|---|---|",
        ]
        for ts in series:
            if not len(ts):
                continue
            vals = ts.values()
            lines.append(
                f"| {ts.name} | {ts.count} | {vals[0]:.3f} | {vals[-1]:.3f} "
                f"| {min(vals):.3f} | {max(vals):.3f} |"
            )
    return "\n".join(lines)


def generate_markdown(
    config: Optional[ExperimentConfig] = None, *, jobs: int = 1
) -> str:
    """Run every figure (under an observability session, so the report
    can close with a Diagnostics rollup) and render one markdown
    document. All figures execute over one deduplicated cell grid —
    cells shared between figures record diagnostics exactly once, in
    either venue — so the rendered document is byte-identical for any
    ``jobs``."""
    config = config if config is not None else ExperimentConfig.default()
    sections: List[str] = [
        "# DeFrag reproduction report",
        "",
        "Regenerated evaluation of *Reducing The De-linearization of Data "
        "Placement to Improve Deduplication Performance* (SC 2012) on the "
        "simulated substrate.",
        "",
        _config_section(config),
        "",
        _provenance_section(config),
    ]
    # drop memoized workload runs so the figures execute (and record
    # diagnostics) under this session; again after, so obs-off callers
    # never reuse anything built during it
    clear_memo()
    try:
        with obs_session(Observability()) as obs:
            results, errors = run_suite(ALL_FIGURES, config, jobs=jobs)
    finally:
        clear_memo()
    if errors:
        raise GridError(
            "report aborted, experiments failed: "
            + "; ".join(f"{k}: {v}" for k, v in errors.items())
        )
    for name in ALL_FIGURES:
        result = results[name]
        sections += [
            "",
            f"## {result.figure}: {result.title}",
            "",
            _markdown_table(result, EXPERIMENTS[name].fmt),
            "",
        ]
        sections += [f"- **{k}**: {v}" for k, v in result.notes.items()]
    sections += ["", _diagnostics_section(obs.registry), ""]
    return "\n".join(sections)

