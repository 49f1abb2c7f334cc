"""Fig. 5 — deduplication efficiency: DeFrag vs SiLo-Like.

Paper: both keep some redundancy (DeFrag by α-rewrites, SiLo by missed
detections). Counting only segments that share *part* of their redundant
chunks (fully duplicate segments removed by both are excluded), SiLo has
~12% of the redundant data not removed by generation 66 while DeFrag has
only ~4% — DeFrag buys its locality much more cheaply.

Grid decomposition: the DeFrag and SiLo cells are the same group-workload
cells Fig. 4 uses (same keys), so a combined ``repro all`` grid computes
each engine run once — the parallel analogue of the serial group memo.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.common import (
    FigureResult,
    cell_values,
    group_cell_spec,
)
from repro.experiments.config import ExperimentConfig
from repro.parallel import CellSpec, GridError

#: the two engines Fig. 5 compares, in series order
ENGINES = ("DeFrag", "SiLo-Like")


def cells(config: ExperimentConfig) -> List[CellSpec]:
    """The figure's grid: one group-workload cell per engine."""
    return [group_cell_spec(config, engine) for engine in ENGINES]


def assemble(config: ExperimentConfig, results: Dict) -> FigureResult:
    """Rebuild Fig. 5 from grid cell payloads (failed cells go NaN)."""
    specs = cells(config)
    values, failures = cell_values(specs, results)
    by_engine = {
        spec.kwargs["engine"]: values.get(spec.key) for spec in specs
    }
    ok = {name: v for name, v in by_engine.items() if v is not None}
    if not ok:
        raise GridError(f"fig5: every cell failed: {failures}")
    generations = next(iter(ok.values()))["generations"]
    n = len(generations)
    eff = {
        name: (
            list(by_engine[name]["partial_eff_cum"])
            if by_engine[name] is not None
            else [float("nan")] * n
        )
        for name in ENGINES
    }
    defrag_eff = eff["DeFrag"]
    silo_eff = eff["SiLo-Like"]
    return FigureResult(
        figure="Fig5",
        title="Deduplication efficiency comparison (partial-sharing segments)",
        x_label="generation",
        x=list(generations),
        series={
            "DeFrag": defrag_eff,
            "SiLo-Like": silo_eff,
        },
        notes={
            "paper": "at gen 66: SiLo keeps ~12% of redundancy, DeFrag only ~4%",
            "kept_at_end": "DeFrag=%.1f%% SiLo=%.1f%%"
            % (100 * (1 - defrag_eff[-1]), 100 * (1 - silo_eff[-1])),
        },
        failures=failures,
    )
