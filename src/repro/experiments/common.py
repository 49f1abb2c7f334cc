"""Shared experiment plumbing: result container, memoized group runs.

Figures 4/5/6 consume the same three engine runs over the 66-generation
group workload; :func:`run_group_workload` memoizes those runs per
config so the figure harnesses stay independent without triplicating
minutes of simulation. Engine construction lives in :mod:`repro.api`
(:func:`~repro.api.create_engine` / :func:`~repro.api.create_resources`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.api import create_engine, create_resources, engine_info
from repro.dedup.base import BackupReport, EngineResources
from repro.dedup.pipeline import (
    PreparedBackup,
    TruthTriple,
    prepare_workload,
    run_prepared_backup,
    truth_annotations,
)
from repro.experiments.config import ExperimentConfig
from repro.metrics.efficiency import partial_segment_efficiency
from repro.metrics.throughput import throughput_series
from repro.parallel import CellSpec
from repro.segmenting.segmenter import ContentDefinedSegmenter
from repro.workloads.bytegen import group_fs_bytes
from repro.workloads.generators import group_fs_66


#: Engine display names used across all figures (matching the paper's
#: legends: "DDFS-Like", "SiLo-Like", and the DeFrag contribution), plus
#: the extended related-work baselines ("iDedup", "SparseIndex").
ENGINE_NAMES = ("DeFrag", "DDFS-Like", "SiLo-Like", "Exact", "iDedup", "SparseIndex")

#: The maintenance-phase engines appended when
#: ``config.extended_engines`` is set (fig4/fig6/restore ablation).
MAINTENANCE_ENGINE_NAMES = ("RevDedup", "Hybrid")


def paper_segmenter() -> ContentDefinedSegmenter:
    """The paper's segment configuration: 0.5–2 MB content-defined."""
    return ContentDefinedSegmenter()


@dataclass
class FigureResult:
    """A regenerated figure: x axis, named series, and provenance notes.

    ``table()`` renders the same rows the paper's figure plots, ready for
    EXPERIMENTS.md.
    """

    figure: str
    title: str
    x_label: str
    x: List[int]
    series: Dict[str, List[float]]
    notes: Dict[str, str] = field(default_factory=dict)
    #: grid cells that failed while producing this figure (their series
    #: values are NaN); non-empty failures make the CLI exit non-zero
    failures: List[str] = field(default_factory=list)

    def table(self, fmt: str = "{:.1f}") -> str:
        """Aligned text table: one row per x value, one column per series."""
        names = list(self.series)
        widths = [max(len(n), 10) for n in names]
        header = f"{self.x_label:>12} " + " ".join(
            f"{n:>{w}}" for n, w in zip(names, widths)
        )
        lines = [f"== {self.figure}: {self.title} ==", header]
        for i, xv in enumerate(self.x):
            row = f"{xv:>12} " + " ".join(
                f"{fmt.format(self.series[n][i]):>{w}}" for n, w in zip(names, widths)
            )
            lines.append(row)
        for key, val in self.notes.items():
            lines.append(f"# {key}: {val}")
        for failure in self.failures:
            lines.append(f"# FAILED cell {failure}")
        return "\n".join(lines)

    def endpoint(self, name: str) -> float:
        """Last value of a series (the figures' headline comparisons)."""
        return self.series[name][-1]


# ----------------------------------------------------------------------
# shared group-workload runs (figs 4/5/6)
# ----------------------------------------------------------------------

_GROUP_MEMO: Dict[Tuple, Dict[str, Tuple[EngineResources, List[BackupReport]]]] = {}

# the engine-independent half of a group run — generated jobs, segment
# boundaries/views, and ground-truth annotations — shared by every
# engine replaying the same workload (they depend only on the workload
# and segmenter parameters, so replaying N engines pays for them once)
_PREP_MEMO: Dict[Tuple, Tuple[List[PreparedBackup], List[TruthTriple]]] = {}


def _workload_key(config: ExperimentConfig) -> Tuple:
    c = config
    return (c.seed, c.per_user_bytes, c.n_users, c.n_backups, c.churn_full, c.byte_level)


def _group_jobs(config: ExperimentConfig):
    """The group workload's backup jobs: chunk-level streams by default,
    the byte-level ingest path (bytes -> CDC -> batch fingerprint) when
    ``config.byte_level`` is set."""
    kwargs = dict(
        per_user_bytes=config.per_user_bytes,
        seed=config.seed,
        n_users=config.n_users,
        n_backups=config.n_backups,
        churn=config.churn_full,
    )
    if config.byte_level:
        return group_fs_bytes(**kwargs)
    return group_fs_66(**kwargs)


def _prepared_group(
    config: ExperimentConfig,
) -> Tuple[List[PreparedBackup], List[TruthTriple]]:
    key = _workload_key(config)
    hit = _PREP_MEMO.get(key)
    if hit is None:
        prepared = prepare_workload(_group_jobs(config), paper_segmenter())
        hit = (prepared, truth_annotations(prepared))
        _PREP_MEMO[key] = hit
    return hit


def _config_key(config: ExperimentConfig) -> Tuple:
    c = config
    return (
        c.seed, c.per_user_bytes, c.n_users, c.n_backups, c.alpha,
        c.disk.name, c.container_bytes, c.cache_containers, c.prefetch_ahead,
        c.silo_block_bytes, c.silo_cache_blocks, c.silo_similarity_capacity,
        c.index_page_cache_pages,
        c.bloom_capacity, c.bloom_fp_rate, c.churn_full, c.store,
        c.byte_level, c.hybrid_cache_chunks, c.maintenance_min_utilization,
        c.shard, c.tenant_cache_chunks,
    )


def run_group_workload(
    config: ExperimentConfig, engines: Sequence[str] = ("DeFrag", "DDFS-Like", "SiLo-Like")
) -> Dict[str, Tuple[EngineResources, List[BackupReport]]]:
    """Run the 66-generation group workload through the named engines.

    Results (resources + reports, keeping the stores alive for restores)
    are memoized per config so figs 4/5/6 share one set of runs.
    """
    key = _config_key(config)
    cached = _GROUP_MEMO.setdefault(key, {})
    for name in engines:
        if name in cached:
            continue
        res = create_resources(config)
        engine = create_engine(name, config, res)
        prepared, truths = _prepared_group(config)
        # engines with an out-of-line phase get it driven after every
        # generation, so their reported layout/clock reflect the policy's
        # true lifecycle; for everyone else end_generation is a no-op
        # that is skipped entirely (byte-identical to the plain loop)
        maintain = engine_info(name).supports_maintenance
        reports: List[BackupReport] = []
        for prep, truth in zip(prepared, truths):
            reports.append(run_prepared_backup(engine, prep, truth))
            if maintain:
                _, remapped = engine.end_generation([r.recipe for r in reports])
                for report, recipe in zip(reports, remapped):
                    report.recipe = recipe
        cached[name] = (res, reports)
    return {name: cached[name] for name in engines}


def clear_memo() -> None:
    """Drop memoized group runs (tests use this to bound memory)."""
    _GROUP_MEMO.clear()
    _PREP_MEMO.clear()


# ----------------------------------------------------------------------
# grid cells (repro.parallel)
# ----------------------------------------------------------------------


def config_fingerprint(config: ExperimentConfig) -> str:
    """Short stable digest of the *full* config identity.

    Cell keys embed this so two cells over different configs (seed,
    scale, alpha, cache sizes, ...) can never collide in one grid; the
    dataclass repr covers every field recursively and deterministically.
    """
    return hashlib.sha256(repr(config).encode("utf-8")).hexdigest()[:12]


def warm_group_workload(config: ExperimentConfig) -> None:
    """Parent-side warm hook: precompute the group workload preparation
    (generation + segmentation + ground truth) so forked workers inherit
    the ``_PREP_MEMO`` entry read-only instead of recomputing it."""
    _prepared_group(config)


def group_cell(config: ExperimentConfig, engine: str) -> Dict:
    """Grid cell: one engine over the 66-generation group workload.

    Returns every series figs 4/5 read from a group run, so one cell
    (deduplicated by key) serves both figures — mirroring what the
    serial ``_GROUP_MEMO`` sharing does in-process.
    """
    _res, reports = run_group_workload(config, (engine,))[engine]
    return {
        "generations": [r.generation + 1 for r in reports],
        "throughput_bps": [float(t) for t in throughput_series(reports)],
        "partial_eff_cum": [
            float(e) for e in partial_segment_efficiency(reports, cumulative=True)
        ],
    }


def group_cell_spec(config: ExperimentConfig, engine: str) -> CellSpec:
    """Spec for :func:`group_cell` (shared by figs 4 and 5)."""
    return CellSpec(
        key=("group", engine, config_fingerprint(config)),
        fn="repro.experiments.common:group_cell",
        config=config,
        kwargs={"engine": engine},
        warm="repro.experiments.common:warm_group_workload",
    )


def cell_values(
    specs: Sequence[CellSpec], results: Dict
) -> Tuple[Dict[Tuple, Dict], List[str]]:
    """Split grid results for ``specs`` into payloads and failures.

    Returns ``(values, failures)``: ``values`` maps cell key -> payload
    for successful cells; ``failures`` holds one human-readable line per
    failed or missing cell, in spec order.
    """
    values: Dict[Tuple, Dict] = {}
    failures: List[str] = []
    for spec in specs:
        result = results.get(spec.key)
        if result is None:
            failures.append(f"{'/'.join(spec.key)}: no result")
        elif not result.ok:
            failures.append(result.describe_failure())
        else:
            values[spec.key] = result.value
    return values, failures
