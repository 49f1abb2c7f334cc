"""Fig. 4 — deduplication throughput: DeFrag vs DDFS-Like vs SiLo-Like.

Paper: over 66 backups from five users' file systems (α = 0.1), DDFS's
throughput is much lower than DeFrag's; DeFrag is comparable to SiLo and
beats it on generations with very good stream locality (1–5, 41–42)
because one container prefetch then serves a long run of duplicates,
while SiLo still pays similarity-driven block fetches.

Grid decomposition: one cell per engine over the shared group workload
(``common.group_cell``); cells are keyed so fig5's DeFrag/SiLo cells
deduplicate against these in a combined ``repro all`` grid.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.common import (
    MAINTENANCE_ENGINE_NAMES,
    FigureResult,
    cell_values,
    group_cell_spec,
)
from repro.experiments.config import ExperimentConfig
from repro.parallel import CellSpec, GridError

#: the three engines Fig. 4 compares, in series order
ENGINES = ("DeFrag", "DDFS-Like", "SiLo-Like")


def _engines(config: ExperimentConfig):
    """The figure's engine set: the paper's three, plus the
    maintenance-phase engines when ``config.extended_engines`` is on."""
    if config.extended_engines:
        return ENGINES + MAINTENANCE_ENGINE_NAMES
    return ENGINES


def cells(config: ExperimentConfig) -> List[CellSpec]:
    """The figure's grid: one group-workload cell per engine."""
    return [group_cell_spec(config, engine) for engine in _engines(config)]


def assemble(config: ExperimentConfig, results: Dict) -> FigureResult:
    """Rebuild Fig. 4 from grid cell payloads (failed cells go NaN)."""
    specs = cells(config)
    values, failures = cell_values(specs, results)
    by_engine = {
        spec.kwargs["engine"]: values.get(spec.key) for spec in specs
    }
    ok = {name: v for name, v in by_engine.items() if v is not None}
    if not ok:
        raise GridError(f"fig4: every cell failed: {failures}")
    generations = next(iter(ok.values()))["generations"]
    n = len(generations)
    series = {
        name: (
            [t / 1e6 for t in by_engine[name]["throughput_bps"]]
            if by_engine[name] is not None
            else [float("nan")] * n
        )
        for name in _engines(config)
    }
    defrag = series["DeFrag"]
    ddfs = series["DDFS-Like"]
    silo = series["SiLo-Like"]
    wins_over_silo = sum(1 for d, s in zip(defrag, silo) if d > s)
    notes = {
        "paper": "DDFS well below DeFrag; DeFrag comparable to SiLo, "
        "ahead when stream locality is very good",
        "mean_MBps": "DeFrag=%.0f DDFS=%.0f SiLo=%.0f"
        % (sum(defrag) / n, sum(ddfs) / n, sum(silo) / n),
        "defrag_gens_above_silo": f"{wins_over_silo}/{n}",
    }
    if config.extended_engines:
        ext = [n_ for n_ in MAINTENANCE_ENGINE_NAMES if series.get(n_)]
        notes["extended_mean_MBps"] = " ".join(
            "%s=%.0f" % (n_, sum(series[n_]) / n) for n_ in ext
        )
    if config.byte_level:
        notes["input"] = (
            "byte-level ingest: generated buffers -> Gear CDC -> batch "
            "fingerprint -> engines"
        )
    return FigureResult(
        figure="Fig4",
        title="Deduplication throughput comparison (alpha=%.2f)%s"
        % (config.alpha, " [bytes]" if config.byte_level else ""),
        x_label="generation",
        x=list(generations),
        series=series,
        notes=notes,
        failures=failures,
    )
