"""Fig. 2 — degradation of DDFS-like deduplication throughput.

Paper: average throughput over 20 full backup generations of one
author's ~647 GB file system falls from 213 MB/s (gen 1) to 110 MB/s
(gen 20) as accumulated deduplication de-linearizes placement and decays
duplicate locality.

This harness ingests the scaled ``author_fs_20_full`` workload through
the DDFS-like engine and reports the same series (simulated MB/s per
generation), plus the mechanism observable: cache hits bought per
container prefetch.

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
from repro.metrics.fragmentation import locality_series
from repro.metrics.throughput import throughput_series
from repro.parallel import CellSpec, GridError
from repro.workloads.generators import author_fs_20_full


def author_full_cell(config: ExperimentConfig, engine: str = "DDFS-Like") -> Dict:
    """Grid cell: one engine over the 20-generation full-backup author
    workload; returns the throughput and locality series Fig. 2 plots."""
    res = create_resources(config)
    eng = create_engine(engine, config, res)
    jobs = author_fs_20_full(
        fs_bytes=config.fs_bytes,
        seed=config.seed,
        n_generations=config.n_generations,
        churn=config.churn_full,
    )
    reports = run_workload(eng, jobs, paper_segmenter())
    return {
        "generations": [r.generation + 1 for r in reports],
        "mbps": [t / 1e6 for t in throughput_series(reports)],
        "hits_per_prefetch": [float(v) for v in locality_series(reports)],
    }


def cells(config: ExperimentConfig) -> List[CellSpec]:
    """The figure's grid: one DDFS cell over the author workload."""
    return [
        CellSpec(
            key=("fig2", "DDFS-Like", config_fingerprint(config)),
            fn="repro.experiments.fig2:author_full_cell",
            config=config,
            kwargs={"engine": "DDFS-Like"},
        )
    ]


def assemble(config: ExperimentConfig, results: Dict) -> FigureResult:
    """Rebuild Fig. 2 from its (single) grid cell."""
    specs = cells(config)
    values, failures = cell_values(specs, results)
    if not values:
        raise GridError(f"fig2: every cell failed: {failures}")
    payload = values[specs[0].key]
    thr = payload["mbps"]
    return FigureResult(
        figure="Fig2",
        title="Degradation of deduplication throughput (DDFS-Like)",
        x_label="generation",
        x=list(payload["generations"]),
        series={
            "MB/s": thr,
            "hits/prefetch": payload["hits_per_prefetch"],
        },
        notes={
            "paper": "213 MB/s (gen 1) -> 110 MB/s (gen 20), monotone decay",
            "claim": "throughput decays with generations as duplicate locality weakens",
            "decay_ratio_measured": f"{thr[0] / thr[-1]:.2f}x" if thr[-1] else "inf",
        },
        failures=failures,
    )
