"""Ablation studies for the design choices DESIGN.md calls out.

* ``alpha-sweep`` (``alpha_cells``/``alpha_assemble``) — the α
  trade-off: kept redundancy (storage cost) vs ingest throughput vs
  restore rate, α ∈ :data:`ALPHAS`. The paper fixes α = 0.1 and notes it
  "can be adjusted and controlled to trade off the spatial locality
  improvement and the sacrificed compression ratios"; this quantifies
  that trade-off.
* ``segment-ablation`` (``segment_cells``/``segment_assemble``) —
  content-defined vs fixed segmenting.
* ``cache-ablation`` (``cache_cells``/``cache_assemble``) — DDFS
  prefetch-cache capacity vs throughput decay (how much RAM merely
  *hides* de-linearization).

Grid decomposition: each sweep point (one α value, one segmenter kind,
one cache size) is an independent cell. Run them through the experiment
table, e.g. ``python -m repro alpha-sweep``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.dedup.pipeline import run_workload
from repro.api import create_engine, create_reader, create_resources
from repro.experiments.common import (
    FigureResult,
    cell_values,
    config_fingerprint,
    paper_segmenter,
)
from repro.experiments.config import ExperimentConfig
from repro.metrics.efficiency import cumulative_efficiency
from repro.metrics.storage import storage_summary
from repro.metrics.throughput import mean_throughput
from repro.parallel import CellSpec, GridError
from repro.segmenting.segmenter import FixedSegmenter
from repro.workloads.generators import author_fs_20_full


#: the α points the sweep runs DeFrag at
ALPHAS = (0.0, 0.05, 0.1, 0.2, 0.5)

#: the DDFS prefetch-cache capacities (containers) the cache ablation runs
CACHE_SIZES = (4, 8, 12, 24, 48)

_NAN = float("nan")


def _author_jobs(config: ExperimentConfig):
    return author_fs_20_full(
        fs_bytes=config.fs_bytes,
        seed=config.seed,
        n_generations=config.n_generations,
        churn=config.churn_full,
    )


# ----------------------------------------------------------------------
# alpha sweep
# ----------------------------------------------------------------------


def alpha_cell(config: ExperimentConfig) -> Dict:
    """Grid cell: DeFrag at one α (the α is baked into ``config``)."""
    res = create_resources(config)
    engine = create_engine("DeFrag", config, res)
    reports = run_workload(engine, _author_jobs(config), paper_segmenter())
    reader = create_reader(res.store, config)
    return {
        "ingest_mbps": mean_throughput(reports) / 1e6,
        "kept_pct": 100.0 * (1.0 - cumulative_efficiency(reports)[-1]),
        "compression": storage_summary(reports).compression_ratio,
        "restore_mbps": reader.restore(reports[-1].recipe).read_rate / 1e6,
    }


def alpha_cells(config: ExperimentConfig) -> List[CellSpec]:
    """One DeFrag cell per α point."""
    specs = []
    for alpha in ALPHAS:
        cfg = config.with_(alpha=alpha)
        specs.append(
            CellSpec(
                key=("alpha", f"a{alpha:g}", config_fingerprint(cfg)),
                fn="repro.experiments.ablations:alpha_cell",
                config=cfg,
            )
        )
    return specs


def alpha_assemble(config: ExperimentConfig, results: Dict) -> FigureResult:
    specs = alpha_cells(config)
    values, failures = cell_values(specs, results)
    if not values:
        raise GridError(f"alpha-sweep: every cell failed: {failures}")
    rows = [values.get(spec.key) for spec in specs]
    return FigureResult(
        figure="AblationAlpha",
        title="alpha sweep: locality gain vs compression sacrificed",
        x_label="alpha*100",
        x=[int(round(a * 100)) for a in ALPHAS],
        series={
            "ingest MB/s": [r["ingest_mbps"] if r else _NAN for r in rows],
            "kept redund %": [r["kept_pct"] if r else _NAN for r in rows],
            "compression x": [r["compression"] if r else _NAN for r in rows],
            "restore MB/s": [r["restore_mbps"] if r else _NAN for r in rows],
        },
        notes={
            "reading": "alpha=0 is exact DDFS; larger alpha rewrites more "
            "(faster ingest+restore, lower compression)"
        },
        failures=failures,
    )


# ----------------------------------------------------------------------
# segmenting strategy
# ----------------------------------------------------------------------

_SEGMENTER_KINDS = ("content-defined", "fixed-1MiB")


def segment_cell(config: ExperimentConfig, kind: str) -> Dict:
    """Grid cell: DeFrag under one segmenting strategy."""
    segmenter = paper_segmenter() if kind == "content-defined" else FixedSegmenter()
    res = create_resources(config)
    engine = create_engine("DeFrag", config, res)
    reports = run_workload(engine, _author_jobs(config), segmenter)
    return {
        "ingest_mbps": mean_throughput(reports) / 1e6,
        "kept_pct": 100.0 * (1.0 - cumulative_efficiency(reports)[-1]),
        "compression": storage_summary(reports).compression_ratio,
    }


def segment_cells(config: ExperimentConfig) -> List[CellSpec]:
    """One DeFrag cell per segmenting strategy."""
    return [
        CellSpec(
            key=("segmenter", kind, config_fingerprint(config)),
            fn="repro.experiments.ablations:segment_cell",
            config=config,
            kwargs={"kind": kind},
        )
        for kind in _SEGMENTER_KINDS
    ]


def segment_assemble(config: ExperimentConfig, results: Dict) -> FigureResult:
    specs = segment_cells(config)
    values, failures = cell_values(specs, results)
    if not values:
        raise GridError(f"segment-ablation: every cell failed: {failures}")
    series = {}
    for spec in specs:
        payload = values.get(spec.key)
        series[spec.kwargs["kind"]] = (
            [payload["ingest_mbps"], payload["kept_pct"], payload["compression"]]
            if payload
            else [_NAN, _NAN, _NAN]
        )
    return FigureResult(
        figure="AblationSegmenter",
        title="segmenting strategy under DeFrag",
        x_label="metric-idx",
        x=[0, 1, 2],
        series=series,
        notes={
            "rows": "0: ingest MB/s, 1: kept redundancy %, 2: compression x",
            "reading": "content-defined segments keep SPL groups aligned "
            "across generations; fixed segments drift with inserts",
        },
        failures=failures,
    )


# ----------------------------------------------------------------------
# prefetch-cache capacity
# ----------------------------------------------------------------------


def cache_cell(config: ExperimentConfig) -> Dict:
    """Grid cell: DDFS decay at one prefetch-cache capacity (baked into
    ``config.cache_containers``)."""
    res = create_resources(config)
    engine = create_engine("DDFS-Like", config, res)
    reports = run_workload(engine, _author_jobs(config), paper_segmenter())
    t = [r.throughput / 1e6 for r in reports]
    return {
        "first_mbps": t[0],
        "last_mbps": t[-1],
        "decay": t[0] / t[-1] if t[-1] else float("inf"),
    }


def cache_cells(config: ExperimentConfig) -> List[CellSpec]:
    """One DDFS cell per cache capacity."""
    specs = []
    for cc in CACHE_SIZES:
        cfg = config.with_(cache_containers=int(cc))
        specs.append(
            CellSpec(
                key=("cache", f"c{int(cc)}", config_fingerprint(cfg)),
                fn="repro.experiments.ablations:cache_cell",
                config=cfg,
            )
        )
    return specs


def cache_assemble(config: ExperimentConfig, results: Dict) -> FigureResult:
    specs = cache_cells(config)
    values, failures = cell_values(specs, results)
    if not values:
        raise GridError(f"cache-ablation: every cell failed: {failures}")
    rows = [values.get(spec.key) for spec in specs]
    return FigureResult(
        figure="AblationCache",
        title="DDFS prefetch-cache capacity vs throughput decay",
        x_label="cache (containers)",
        x=[int(c) for c in CACHE_SIZES],
        series={
            "gen1 MB/s": [r["first_mbps"] if r else _NAN for r in rows],
            "genN MB/s": [r["last_mbps"] if r else _NAN for r in rows],
            "decay x": [r["decay"] if r else _NAN for r in rows],
        },
        notes={
            "reading": "more cache postpones but does not remove the decay "
            "— the layout itself is what de-linearizes"
        },
        failures=failures,
    )

