"""Experiment harnesses: one module per paper figure, plus ablations.

Every experiment is a grid of independent cells. Each harness module
exposes the uniform pair ``cells(config)`` (the cell specs) and
``assemble(config, results)`` (the
:class:`~repro.experiments.common.FigureResult` rebuilt from the cell
payloads). :data:`repro.experiments.suite.EXPERIMENTS` is the one table
naming them, with each experiment's table format, and
:func:`repro.experiments.suite.run_suite` is the one way to run them
(``python -m repro <name>`` drives it):

* :mod:`~repro.experiments.fig2` — DDFS-like throughput decay, 20 full
  generations.
* :mod:`~repro.experiments.fig3` — SiLo-like efficiency decay, 20
  incremental generations.
* :mod:`~repro.experiments.fig4` — throughput: DeFrag vs DDFS-like vs
  SiLo-like, 66 generations.
* :mod:`~repro.experiments.fig5` — efficiency: DeFrag vs SiLo-like
  (partial-sharing-segment accounting), 66 generations.
* :mod:`~repro.experiments.fig6` — restore read performance: DeFrag vs
  DDFS-like, generations 1–20.
* :mod:`~repro.experiments.ablations` — α sweep, segmenter, and cache
  sizing studies.
* :mod:`~repro.experiments.restore_ablation` — restore cache policy x
  cache size x forward-assembly window.
* :mod:`~repro.experiments.extensions` — related-work comparison and the
  garbage-collection study.
* :mod:`~repro.experiments.frontier` — the placement-policy frontier:
  dedup ratio vs ingest rate vs restore seeks by backup age vs
  maintenance cost, across every registered engine.
* :mod:`~repro.experiments.tenants` — multi-tenant fairness of the
  shared fingerprint cache.

Every experiment takes an
:class:`~repro.experiments.config.ExperimentConfig` (scales: ``small``
for tests, ``default`` for the recorded results, ``large`` for patient
runs). The harness modules are imported on demand, never by this
package.
"""

from repro.experiments.config import ExperimentConfig

__all__ = ["ExperimentConfig"]
