"""Extension experiments beyond the paper's figures.

* ``related-work`` (``related_cells``/``related_assemble``) — all
  selective/near-exact schemes the paper discusses, side by side on one
  workload: DeFrag (SPL rewrites), iDedup (sequence-length rewrites),
  SiLo (similarity near-exact), SparseIndex (sample near-exact), DDFS
  (exact, locality-cached).
* ``gc-study`` (``gc_cells``/``gc_assemble``) — how much of DeFrag's
  compression sacrifice is reclaimable: ingest with rewrites, expire all
  but the last :data:`GC_RETAIN_LAST` generations, run the garbage
  collector, and measure space and restore rate before/after. It shows
  that DeFrag's rewrite overhead is largely *transient*: once old
  generations expire, the superseded copies sit in low-utilization
  containers that compaction reclaims, and the surviving backups restore
  at least as fast afterwards.

Grid decomposition: one cell per engine for the comparison; the GC
study is a single cell (ingest → expire → collect is one pipeline over
one live store). Run them through the experiment table, e.g.
``python -m repro gc-study``.
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
from repro.metrics.efficiency import cumulative_efficiency
from repro.metrics.storage import storage_summary
from repro.metrics.throughput import mean_throughput
from repro.parallel import CellSpec, GridError
from repro.restore.reader import RestoreReader
from repro.storage.gc import GarbageCollector
from repro.workloads.generators import author_fs_20_full

#: the engines the related-work comparison scores, in series order
RELATED_ENGINES = ("DDFS-Like", "SiLo-Like", "SparseIndex", "iDedup", "DeFrag")

#: the GC study keeps the last this-many backups and expires the rest
GC_RETAIN_LAST = 4

#: the GC study compacts containers whose live fraction is below this
GC_MIN_UTILIZATION = 0.7

_NAN = float("nan")


def _author_jobs(config: ExperimentConfig):
    return author_fs_20_full(
        fs_bytes=config.fs_bytes,
        seed=config.seed,
        n_generations=config.n_generations,
        churn=config.churn_full,
    )


# ----------------------------------------------------------------------
# related-work comparison
# ----------------------------------------------------------------------


def related_cell(config: ExperimentConfig, engine: str) -> Dict:
    """Grid cell: one engine's full scorecard on the author workload."""
    res = create_resources(config)
    eng = create_engine(engine, config, res)
    reports = run_workload(eng, _author_jobs(config), paper_segmenter())
    restore = RestoreReader(res.store).restore(reports[-1].recipe)
    return {
        "row": [
            mean_throughput(reports) / 1e6,
            cumulative_efficiency(reports)[-1],
            storage_summary(reports).compression_ratio,
            restore.read_rate / 1e6,
        ]
    }


def related_cells(config: ExperimentConfig) -> List[CellSpec]:
    """One scorecard cell per engine."""
    return [
        CellSpec(
            key=("relwork", engine, config_fingerprint(config)),
            fn="repro.experiments.extensions:related_cell",
            config=config,
            kwargs={"engine": engine},
        )
        for engine in RELATED_ENGINES
    ]


def related_assemble(config: ExperimentConfig, results: Dict) -> FigureResult:
    specs = related_cells(config)
    values, failures = cell_values(specs, results)
    if not values:
        raise GridError(f"related-work: every cell failed: {failures}")
    series = {}
    for spec in specs:
        payload = values.get(spec.key)
        series[spec.kwargs["engine"]] = (
            list(payload["row"]) if payload else [_NAN] * 4
        )
    return FigureResult(
        figure="ExtRelatedWork",
        title="selective & near-exact schemes, one substrate",
        x_label="metric-idx",
        x=[0, 1, 2, 3],
        series=series,
        notes={
            "rows": "0: ingest MB/s, 1: efficiency, 2: compression x, 3: restore MB/s",
        },
        failures=failures,
    )


# ----------------------------------------------------------------------
# garbage-collection study
# ----------------------------------------------------------------------


def gc_cell(
    config: ExperimentConfig, retain_last: int, min_utilization: float
) -> Dict:
    """Grid cell: the whole ingest → expire → collect → re-restore
    pipeline (one live store end to end)."""
    res = create_resources(config)
    engine = create_engine("DeFrag", config, res)
    reports = run_workload(engine, _author_jobs(config), paper_segmenter())

    retained = [r.recipe for r in reports[-retain_last:]]
    reader = RestoreReader(res.store)
    rate_before = reader.restore(retained[-1]).read_rate / 1e6
    physical_before = res.store.stats.physical_bytes

    gc = GarbageCollector(res.store, index=res.index)
    report, remapped = gc.collect(retained, min_utilization=min_utilization)

    rate_after = reader.restore(remapped[-1]).read_rate / 1e6
    physical_after = res.store.stats.physical_bytes
    return {
        "values": [
            physical_before / 2**20,
            physical_after / 2**20,
            report.bytes_reclaimed / 2**20,
            report.utilization_before,
            report.utilization_after,
            rate_after / max(rate_before, 1e-9),
        ],
        "collected": f"{report.containers_collected}/{report.containers_examined} containers",
    }


def gc_cells(config: ExperimentConfig) -> List[CellSpec]:
    """The study's grid: a single end-to-end cell."""
    retain_last, min_utilization = GC_RETAIN_LAST, GC_MIN_UTILIZATION
    return [
        CellSpec(
            key=("gc", f"r{retain_last}", f"u{min_utilization:g}", config_fingerprint(config)),
            fn="repro.experiments.extensions:gc_cell",
            config=config,
            kwargs={"retain_last": retain_last, "min_utilization": min_utilization},
        )
    ]


def gc_assemble(config: ExperimentConfig, results: Dict) -> FigureResult:
    specs = gc_cells(config)
    values, failures = cell_values(specs, results)
    if not values:
        raise GridError(f"gc-study: every cell failed: {failures}")
    payload = values[specs[0].key]
    return FigureResult(
        figure="ExtGC",
        title=f"garbage collection after expiring to last {GC_RETAIN_LAST} backups",
        x_label="metric-idx",
        x=[0, 1, 2, 3, 4, 5],
        series={"value": list(payload["values"])},
        notes={
            "rows": "0: MiB before, 1: MiB after, 2: MiB reclaimed, "
            "3: utilization before, 4: utilization after, "
            "5: restore-rate ratio after/before",
            "collected": payload["collected"],
        },
        failures=failures,
    )

