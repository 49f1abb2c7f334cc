"""Fig. 6 — data read (restore) performance: DeFrag vs DDFS-Like.

Paper: restoring backup generations 1–20, DeFrag's read rate is
consistently above DDFS-Like's because the α-rewrites keep each backup's
chunks in fewer, longer container runs (Eq. 1 with a smaller N).

The harness ingests the 20-generation author workload (the same dataset
regime as Fig. 2, where twenty generations of placement decay have
accumulated) through both engines and then restores every generation
from each engine's own store.

Grid decomposition: one ingest+restore cell per engine (the restore
needs the engine's live store, so it happens inside the cell).
"""

from __future__ import annotations

from typing import Dict, List

from repro.dedup.pipeline import run_workload, run_workload_with_maintenance
from repro.api import create_engine, create_reader, create_resources, engine_info
from repro.experiments.common import (
    MAINTENANCE_ENGINE_NAMES,
    FigureResult,
    cell_values,
    config_fingerprint,
    paper_segmenter,
)
from repro.experiments.config import ExperimentConfig
from repro.parallel import CellSpec, GridError
from repro.workloads.generators import author_fs_20_full

#: the two engines Fig. 6 compares, in series order
ENGINES = ("DeFrag", "DDFS-Like")


def _engines(config: ExperimentConfig):
    """The paper's pair, plus the maintenance-phase engines when
    ``config.extended_engines`` is on."""
    if config.extended_engines:
        return ENGINES + MAINTENANCE_ENGINE_NAMES
    return ENGINES


def _nondefault_restore(config: ExperimentConfig) -> bool:
    """True when the figure runs under non-default restore knobs (the
    ``--restore-policy`` / FAA / read-ahead dimension); the default
    table must stay byte-identical to the recorded baseline."""
    return (
        config.restore_policy != "lru"
        or config.restore_faa_window != 0
        or config.restore_readahead
    )


def restore_cell(config: ExperimentConfig, engine: str) -> Dict:
    """Grid cell: ingest the author workload through one engine, then
    restore every generation from that engine's own store (under the
    config's restore policy / FAA / read-ahead knobs)."""
    res = create_resources(config)
    eng = create_engine(engine, config, res)
    jobs = author_fs_20_full(
        fs_bytes=config.fs_bytes,
        seed=config.seed,
        n_generations=config.n_generations,
        churn=config.churn_full,
    )
    if engine_info(engine).supports_maintenance:
        reports = run_workload_with_maintenance(eng, jobs, paper_segmenter())
    else:
        reports = run_workload(eng, jobs, paper_segmenter())
    reader = create_reader(res.store, config)
    rates, nreads, seeks = [], [], []
    for report in reports:
        rr = reader.restore(report.recipe)
        rates.append(rr.read_rate / 1e6)
        nreads.append(float(rr.container_reads))
        seeks.append(float(rr.seeks))
    return {"rates_mbps": rates, "container_reads": nreads, "seeks": seeks}


def cells(config: ExperimentConfig) -> List[CellSpec]:
    """The figure's grid: one ingest+restore cell per engine."""
    return [
        CellSpec(
            key=("fig6", engine, config_fingerprint(config)),
            fn="repro.experiments.fig6:restore_cell",
            config=config,
            kwargs={"engine": engine},
        )
        for engine in _engines(config)
    ]


def assemble(config: ExperimentConfig, results: Dict) -> FigureResult:
    """Rebuild Fig. 6 from grid cell payloads (failed cells go NaN)."""
    specs = cells(config)
    values, failures = cell_values(specs, results)
    by_engine = {
        spec.kwargs["engine"]: values.get(spec.key) for spec in specs
    }
    ok = {name: v for name, v in by_engine.items() if v is not None}
    if not ok:
        raise GridError(f"fig6: every cell failed: {failures}")
    n = len(next(iter(ok.values()))["rates_mbps"])
    nan = [float("nan")] * n
    engines = _engines(config)
    series = {
        name: (
            list(by_engine[name]["rates_mbps"])
            if by_engine[name] is not None
            else list(nan)
        )
        for name in engines
    }
    reads = {
        name: (
            list(by_engine[name]["container_reads"])
            if by_engine[name] is not None
            else list(nan)
        )
        for name in engines
    }
    mean_gain = sum(
        d / max(s, 1e-9) for d, s in zip(series["DeFrag"], series["DDFS-Like"])
    ) / n
    out_series = {
        "DeFrag MB/s": series["DeFrag"],
        "DDFS MB/s": series["DDFS-Like"],
        "DeFrag reads": reads["DeFrag"],
        "DDFS reads": reads["DDFS-Like"],
    }
    for name in engines[2:]:
        out_series[f"{name} MB/s"] = series[name]
        out_series[f"{name} reads"] = reads[name]
    notes = {
        "paper": "DeFrag's read performance is higher than DDFS-Like's",
        "mean_speedup": f"{mean_gain:.2f}x",
        "endpoint_speedup": f"{series['DeFrag'][-1] / max(series['DDFS-Like'][-1], 1e-9):.2f}x",
    }
    if _nondefault_restore(config):
        # the --restore-policy dimension: priced positionings differ
        # from container fetches once read-ahead batches runs, so the
        # table grows seek columns (the recorded default table must not)
        seek_cols = [("DeFrag", "DeFrag seeks"), ("DDFS-Like", "DDFS seeks")]
        seek_cols += [(name, f"{name} seeks") for name in engines[2:]]
        for name, col in seek_cols:
            payload = by_engine[name]
            out_series[col] = (
                list(payload["seeks"]) if payload is not None else list(nan)
            )
        notes["restore"] = (
            f"policy={config.restore_policy} "
            f"faa_window={config.restore_faa_window} "
            f"readahead={config.restore_readahead}"
        )
    return FigureResult(
        figure="Fig6",
        title="Data read (restore) performance comparison",
        x_label="generation",
        x=list(range(1, n + 1)),
        series=out_series,
        notes=notes,
        failures=failures,
    )
