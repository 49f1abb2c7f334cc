"""Fig. 3 — degradation of SiLo-like deduplication efficiency.

Paper: over ~20 incremental backup generations, SiLo's deduplication
efficiency (redundant data removed / redundant data existing) declines
toward ~0.88 because duplicate locality weakens: more of a segment's
duplicates live outside the similar blocks SiLo fetches.

The harness ingests the scaled ``author_fs_20_incremental`` workload
through the SiLo-like engine and reports per-generation efficiency, the
cumulative efficiency, and the mechanism observable (cache hits per
fetched block).

Grid decomposition: a single cell (one engine, one workload).
"""

from __future__ import annotations

from typing import Dict, List

from repro.dedup.pipeline import run_workload
from repro.api import create_engine, create_resources
from repro.experiments.common import (
    FigureResult,
    cell_values,
    config_fingerprint,
    paper_segmenter,
)
from repro.experiments.config import ExperimentConfig
from repro.metrics.efficiency import cumulative_efficiency, efficiency_series
from repro.metrics.fragmentation import locality_series
from repro.parallel import CellSpec, GridError
from repro.workloads.generators import author_fs_20_incremental


def author_incremental_cell(
    config: ExperimentConfig, engine: str = "SiLo-Like"
) -> Dict:
    """Grid cell: one engine over the 20-generation incremental author
    workload; returns the efficiency and locality series Fig. 3 plots."""
    res = create_resources(config)
    eng = create_engine(engine, config, res)
    jobs = author_fs_20_incremental(
        fs_bytes=config.fs_bytes,
        seed=config.seed,
        n_generations=config.n_generations,
        churn=config.churn_incremental,
        avg_file_bytes=config.incremental_file_bytes,
    )
    reports = run_workload(eng, jobs, paper_segmenter())
    return {
        "generations": [r.generation + 1 for r in reports],
        "efficiency": [float(v) for v in efficiency_series(reports)],
        "cumulative": [float(v) for v in cumulative_efficiency(reports)],
        "hits_per_fetch": [float(v) for v in locality_series(reports)],
    }


def cells(config: ExperimentConfig) -> List[CellSpec]:
    """The figure's grid: one SiLo cell over the incremental workload."""
    return [
        CellSpec(
            key=("fig3", "SiLo-Like", config_fingerprint(config)),
            fn="repro.experiments.fig3:author_incremental_cell",
            config=config,
            kwargs={"engine": "SiLo-Like"},
        )
    ]


def assemble(config: ExperimentConfig, results: Dict) -> FigureResult:
    """Rebuild Fig. 3 from its (single) grid cell."""
    specs = cells(config)
    values, failures = cell_values(specs, results)
    if not values:
        raise GridError(f"fig3: every cell failed: {failures}")
    payload = values[specs[0].key]
    cum = payload["cumulative"]
    return FigureResult(
        figure="Fig3",
        title="Degradation of deduplication efficiency (SiLo-Like)",
        x_label="generation",
        x=list(payload["generations"]),
        series={
            "efficiency": payload["efficiency"],
            "cumulative": cum,
            "hits/fetch": payload["hits_per_fetch"],
        },
        notes={
            "paper": "efficiency decays toward ~0.88 by generation 20",
            "claim": "SiLo misses grow as duplicates scatter outside similar blocks",
            "endpoint_cumulative": f"{cum[-1]:.3f}",
        },
        failures=failures,
    )
