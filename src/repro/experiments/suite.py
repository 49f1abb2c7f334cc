"""The experiment table and the one way to run it.

:data:`EXPERIMENTS` is the single list of experiments: the CLI's
choices, ``repro all``, ``repro trace`` and ``repro report`` all read
it. Each experiment module exposes the uniform pair ``cells(config)`` /
``assemble(config, results)``; the table names them as
``"module:function"`` strings, resolved on demand, so importing the
table (and the CLI) does not import any harness.

``repro all --jobs N`` collects every requested experiment's cells into
a *single* grid before running it, so cells shared between figures (the
group-workload runs figs 4 and 5 both consume) are computed exactly
once — the parallel analogue of the serial ``_GROUP_MEMO`` sharing —
and every independent cell across all figures can occupy a worker at
the same time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentConfig

if TYPE_CHECKING:
    from repro.experiments.common import FigureResult
    from repro.parallel import CellSpec


class Experiment(NamedTuple):
    """One row of the experiment table."""

    #: ``"module:function"`` returning the experiment's cell specs
    cells: str
    #: ``"module:function"`` rebuilding the result from the cell payloads
    assemble: str
    #: how the printed and markdown tables format each value
    fmt: str = "{:.1f}"
    #: one of the paper's figures: ``repro all`` and ``repro report`` run it
    paper: bool = False


def _harness(module: str, fmt: str = "{:.1f}", paper: bool = False) -> Experiment:
    """A row for a module exposing the plain ``cells``/``assemble`` pair."""
    return Experiment(f"{module}:cells", f"{module}:assemble", fmt, paper)


_ABL = "repro.experiments.ablations"
_EXT = "repro.experiments.extensions"

#: experiment name -> its table row, in ``repro all`` print order
EXPERIMENTS: Dict[str, Experiment] = {
    "fig2": _harness("repro.experiments.fig2", paper=True),
    "fig3": _harness("repro.experiments.fig3", "{:.3f}", paper=True),
    "fig4": _harness("repro.experiments.fig4", paper=True),
    "fig5": _harness("repro.experiments.fig5", "{:.3f}", paper=True),
    "fig6": _harness("repro.experiments.fig6", paper=True),
    "alpha-sweep": Experiment(f"{_ABL}:alpha_cells", f"{_ABL}:alpha_assemble"),
    "segment-ablation": Experiment(
        f"{_ABL}:segment_cells", f"{_ABL}:segment_assemble"
    ),
    "cache-ablation": Experiment(f"{_ABL}:cache_cells", f"{_ABL}:cache_assemble"),
    "restore-ablation": _harness("repro.experiments.restore_ablation"),
    "related-work": Experiment(f"{_EXT}:related_cells", f"{_EXT}:related_assemble"),
    "gc-study": Experiment(f"{_EXT}:gc_cells", f"{_EXT}:gc_assemble"),
    "frontier": _harness("repro.experiments.frontier", "{:.2f}"),
    "tenants": _harness("repro.experiments.tenants", "{:.2f}"),
}

#: what ``repro all`` and ``repro report`` run, in print order
ALL_FIGURES: Tuple[str, ...] = tuple(
    name for name, exp in EXPERIMENTS.items() if exp.paper
)


def run_suite(
    names: Sequence[str],
    config: Optional[ExperimentConfig] = None,
    *,
    jobs: int = 1,
    timeout_s: Optional[float] = None,
) -> Tuple[Dict[str, "FigureResult"], Dict[str, str]]:
    """Run several experiments over one deduplicated cell grid.

    Returns ``(results, errors)``: per-experiment figure results (which
    may carry per-cell ``failures``) and per-experiment fatal errors
    (every cell an experiment needed failed, so nothing was assembled).
    """
    from repro.parallel import GridError, resolve, run_grid

    config = config if config is not None else ExperimentConfig.default()
    for name in names:
        if name not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {name!r}; pick from {sorted(EXPERIMENTS)}"
            )
    specs: List["CellSpec"] = []
    for name in names:
        specs.extend(resolve(EXPERIMENTS[name].cells)(config))
    grid = run_grid(specs, jobs=jobs, timeout_s=timeout_s)
    results: Dict[str, "FigureResult"] = {}
    errors: Dict[str, str] = {}
    for name in names:
        try:
            results[name] = resolve(EXPERIMENTS[name].assemble)(config, grid)
        except GridError as exc:
            errors[name] = str(exc)
    return results, errors


def suite_failed(
    results: Dict[str, "FigureResult"], errors: Dict[str, str]
) -> bool:
    """True when any experiment had a failed cell or failed outright."""
    return bool(errors) or any(r.failures for r in results.values())
