"""The placement-policy frontier: what each engine trades for what.

Every placement policy in the repo occupies a different point on the
same four-way trade: deduplication ratio, ingest rate, restore locality
(by backup age), and out-of-line maintenance cost. This experiment runs
**all** engines over the author workload — driving the out-of-line
maintenance pass after every generation for engines that have one — and
emits one column per engine with the frontier metrics as rows:

====  =============================================================
row   metric
====  =============================================================
0     dedup ratio, logical / *net* stored bytes after maintenance
1     ingest MB/s (simulated, inline phase only)
2     maintenance simulated seconds (0 for inline-only engines)
3     restore seeks, latest generation
4     restore seeks, middle generation
5     restore seeks, oldest generation
6     total simulated cost: ingest + maintenance seconds
====  =============================================================

The headline verification (ISSUE 9 / ROADMAP item 4): RevDedup beats
DeFrag on latest-generation restore seeks (its newest backup is
physically sequential) and loses on total ingest+maintenance cost (it
rewrites whole segments inline and pays a reverse-reference pass per
generation). Both comparisons are printed as notes.
"""

from __future__ import annotations

from typing import Dict, List

from repro.api import create_engine, create_reader, create_resources, engine_info
from repro.dedup.pipeline import GroundTruth, run_backup
from repro.experiments.common import (
    ENGINE_NAMES,
    MAINTENANCE_ENGINE_NAMES,
    FigureResult,
    cell_values,
    config_fingerprint,
    paper_segmenter,
)
from repro.experiments.config import ExperimentConfig
from repro.parallel import CellSpec, GridError
from repro.workloads.generators import author_fs_20_full

#: every engine on the frontier, paper legends first
ENGINES = ENGINE_NAMES + MAINTENANCE_ENGINE_NAMES

#: metric-row legend, in row order
ROWS = (
    "dedup ratio (net)",
    "ingest MB/s",
    "maintenance s",
    "latest seeks",
    "middle seeks",
    "oldest seeks",
    "total cost s",
)


def _author_jobs(config: ExperimentConfig):
    return author_fs_20_full(
        fs_bytes=config.fs_bytes,
        seed=config.seed,
        n_generations=config.n_generations,
        churn=config.churn_full,
    )


def frontier_cell(config: ExperimentConfig, engine: str) -> Dict:
    """Grid cell: one engine's full lifecycle — ingest every generation,
    drive the out-of-line maintenance pass after each (no-op for
    inline-only engines), then restore backups of three ages from the
    final layout."""
    res = create_resources(config)
    eng = create_engine(engine, config, res)
    maintain = engine_info(engine).supports_maintenance
    segmenter = paper_segmenter()
    truth = GroundTruth()
    reports = []
    maint_seconds = 0.0
    maint_containers = 0
    maint_moved = 0
    for job in _author_jobs(config):
        reports.append(run_backup(eng, job, segmenter, truth))
        if maintain:
            m, remapped = eng.end_generation([r.recipe for r in reports])
            for report, recipe in zip(reports, remapped):
                report.recipe = recipe
            if m is not None:
                maint_seconds += m.elapsed_seconds
                maint_containers += m.containers_rewritten
                maint_moved += m.bytes_moved

    store = res.store
    net_stored = sum(store.data_bytes(cid) for cid in store.cids())
    logical = sum(r.logical_bytes for r in reports)
    ingest_seconds = sum(r.elapsed_seconds for r in reports)

    reader = create_reader(store, config)
    n = len(reports)
    latest = reader.restore(reports[-1].recipe)
    middle = reader.restore(reports[n // 2].recipe)
    oldest = reader.restore(reports[0].recipe)
    return {
        "row": [
            logical / max(net_stored, 1),
            logical / max(ingest_seconds, 1e-9) / 1e6,
            maint_seconds,
            float(latest.seeks),
            float(middle.seeks),
            float(oldest.seeks),
            ingest_seconds + maint_seconds,
        ],
        "maintenance_containers": maint_containers,
        "maintenance_moved_bytes": maint_moved,
    }


def cells(config: ExperimentConfig) -> List[CellSpec]:
    """The frontier grid: one lifecycle cell per engine."""
    return [
        CellSpec(
            key=("frontier", engine, config_fingerprint(config)),
            fn="repro.experiments.frontier:frontier_cell",
            config=config,
            kwargs={"engine": engine},
        )
        for engine in ENGINES
    ]


def assemble(config: ExperimentConfig, results: Dict) -> FigureResult:
    """Rebuild the frontier table from grid cell payloads."""
    specs = cells(config)
    values, failures = cell_values(specs, results)
    if not values:
        raise GridError(f"frontier: every cell failed: {failures}")
    nan = [float("nan")] * len(ROWS)
    series = {}
    for spec in specs:
        payload = values.get(spec.key)
        series[spec.kwargs["engine"]] = (
            list(payload["row"]) if payload else list(nan)
        )
    notes = {
        "rows": "; ".join(f"{i}: {name}" for i, name in enumerate(ROWS)),
    }
    rev, defrag = series.get("RevDedup"), series.get("DeFrag")
    if rev is not None and defrag is not None:
        latest = ROWS.index("latest seeks")
        cost = ROWS.index("total cost s")
        notes["revdedup_latest_seeks_lt_defrag"] = (
            f"{rev[latest]:.0f} < {defrag[latest]:.0f}: "
            f"{rev[latest] < defrag[latest]}"
        )
        notes["revdedup_total_cost_gt_defrag"] = (
            f"{rev[cost]:.1f} > {defrag[cost]:.1f}: {rev[cost] > defrag[cost]}"
        )
    return FigureResult(
        figure="Frontier",
        title="placement-policy frontier, all engines",
        x_label="metric-idx",
        x=list(range(len(ROWS))),
        series=series,
        notes=notes,
        failures=failures,
    )
