"""Restore ablation: cache policy × cache size × FAA window, per engine.

Fig. 6 reports the restore rate under the default reader (LRU,
run-at-a-time). This grid asks how much of the restore cost is the
*reader's* to win back, independent of placement: for each engine's own
layout (DeFrag's α-rewritten log vs DDFS-Like's fully deduplicated one)
it sweeps the pluggable cache policies (LRU / LFU / the Belady offline
upper bound), the client cache size, and the forward-assembly window
(read-ahead rides along whenever the FAA is on), reporting priced
positionings and the resulting restore rate for the final — most
fragmented — generation.

Grid decomposition: one ingest cell per (engine, policy); the cheap
(cache size × FAA window) restore sweep happens inside the cell against
that one ingested store.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

from repro.api import create_engine, create_resources, engine_info
from repro.dedup.pipeline import run_workload, run_workload_with_maintenance
from repro.experiments.common import (
    MAINTENANCE_ENGINE_NAMES,
    FigureResult,
    cell_values,
    config_fingerprint,
    paper_segmenter,
)
from repro.experiments.config import ExperimentConfig
from repro.parallel import CellSpec, GridError
from repro.restore.cache import RESTORE_POLICIES
from repro.restore.reader import RestoreReader
from repro.workloads.generators import author_fs_20_full

#: the engines whose layouts the sweep restores from, in series order
ENGINES = ("DeFrag", "DDFS-Like")


def _engines(config: ExperimentConfig):
    """The default pair, plus the maintenance-phase engines' layouts
    when ``config.extended_engines`` is on."""
    if config.extended_engines:
        return ENGINES + MAINTENANCE_ENGINE_NAMES
    return ENGINES

#: client cache capacities swept (containers)
DEFAULT_CACHE_SIZES: Tuple[int, ...] = (4, 16)

#: forward-assembly windows swept (chunks; 0 = FAA off, run-at-a-time).
#: Read-ahead is enabled exactly when the FAA is on — the assembly
#: window is what makes batched sequential fetches safe to schedule.
DEFAULT_FAA_WINDOWS: Tuple[int, ...] = (0, 2048)

_NAN = float("nan")


def sweep_combos(
    cache_sizes: Sequence[int] = DEFAULT_CACHE_SIZES,
    faa_windows: Sequence[int] = DEFAULT_FAA_WINDOWS,
) -> List[Tuple[int, int]]:
    """The in-cell (cache size, FAA window) grid, in report order."""
    return [(int(c), int(w)) for c in cache_sizes for w in faa_windows]


def restore_sweep_cell(config: ExperimentConfig, engine: str, policy: str) -> Dict:
    """Grid cell: ingest the author workload through one engine once,
    then restore the final generation under every (cache size, FAA
    window) combo with the given cache policy."""
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
    recipe = reports[-1].recipe
    rows = []
    for cache, window in sweep_combos():
        reader = RestoreReader(
            res.store,
            config=replace(res.store.config, cache_containers=cache),
            policy=policy,
            faa_window=window,
            readahead=window > 0,
        )
        rr = reader.restore(recipe)
        rows.append(
            {
                "cache": cache,
                "faa_window": window,
                "seeks": rr.seeks,
                "container_reads": rr.container_reads,
                "cache_misses": rr.cache_misses,
                "rate_mbps": rr.read_rate / 1e6,
            }
        )
    return {"rows": rows}


def cells(config: ExperimentConfig) -> List[CellSpec]:
    """One ingest+sweep cell per (engine, policy)."""
    return [
        CellSpec(
            key=("restore-ablation", engine, policy, config_fingerprint(config)),
            fn="repro.experiments.restore_ablation:restore_sweep_cell",
            config=config,
            kwargs={"engine": engine, "policy": policy},
        )
        for engine in _engines(config)
        for policy in RESTORE_POLICIES
    ]


def assemble(config: ExperimentConfig, results: Dict) -> FigureResult:
    """Rebuild the ablation table from grid cell payloads."""
    specs = cells(config)
    values, failures = cell_values(specs, results)
    if not values:
        raise GridError(f"restore-ablation: every cell failed: {failures}")
    combos = sweep_combos()
    nan_rows = [_NAN] * len(combos)
    series: Dict[str, List[float]] = {}
    rates: Dict[str, List[float]] = {}
    for spec in specs:
        engine, policy = spec.kwargs["engine"], spec.kwargs["policy"]
        short = "DDFS" if engine == "DDFS-Like" else engine
        payload = values.get(spec.key)
        if payload is None:
            series[f"{short}/{policy} seeks"] = list(nan_rows)
            rates[f"{short}/{policy} MB/s"] = list(nan_rows)
        else:
            series[f"{short}/{policy} seeks"] = [
                float(r["seeks"]) for r in payload["rows"]
            ]
            rates[f"{short}/{policy} MB/s"] = [
                float(r["rate_mbps"]) for r in payload["rows"]
            ]
    series.update(rates)
    notes = {
        "combos": "; ".join(
            f"{i}: cache={c} faa_window={w}" for i, (c, w) in enumerate(combos)
        ),
        "reading": "belady is the offline upper bound (fewest misses); "
        "faa_window>0 enables forward assembly + sequential read-ahead "
        "(seeks < container reads); restore of the final generation",
    }
    return FigureResult(
        figure="AblationRestore",
        title="restore policy x cache size x FAA window (final generation)",
        x_label="combo",
        x=list(range(len(combos))),
        series=series,
        notes=notes,
        failures=failures,
    )
