"""Regenerate the golden experiment tables.

Run from the repo root after an *intentional* output change::

    PYTHONPATH=src python tests/experiments/golden/regen.py

then review the diff and commit the updated snapshots together with the
change that moved them. tests/experiments/test_golden_outputs.py pins
these files byte-for-byte.
"""

from __future__ import annotations

import contextlib
import io
import pathlib

from repro.cli import main
from repro.experiments.config import ExperimentConfig
from repro.experiments.suite import run_suite

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent
FIGURES = ("fig4", "fig6")


def regenerate() -> None:
    config = ExperimentConfig.small()
    results, errors = run_suite(list(FIGURES), config, jobs=1)
    if errors:
        raise SystemExit(f"cannot regenerate, experiments failed: {errors}")
    for name in FIGURES:
        path = GOLDEN_DIR / f"{name}_small.txt"
        path.write_text(results[name].table() + "\n")
        print(f"wrote {path}")
    # the byte-level ingest variant (bytes -> CDC -> fingerprint -> engines)
    byte_results, byte_errors = run_suite(
        ["fig4"], config.with_(byte_level=True), jobs=1
    )
    if byte_errors:
        raise SystemExit(f"cannot regenerate, experiments failed: {byte_errors}")
    path = GOLDEN_DIR / "fig4_small_bytes.txt"
    path.write_text(byte_results["fig4"].table() + "\n")
    print(f"wrote {path}")
    # the placement-policy frontier (all engines, maintenance driven)
    frontier_results, frontier_errors = run_suite(["frontier"], config, jobs=1)
    if frontier_errors:
        raise SystemExit(f"cannot regenerate, experiments failed: {frontier_errors}")
    path = GOLDEN_DIR / "frontier_small.txt"
    path.write_text(frontier_results["frontier"].table(fmt="{:.2f}") + "\n")
    print(f"wrote {path}")
    # fig4 with the two maintenance engines riding along
    ext_results, ext_errors = run_suite(
        ["fig4"], config.with_(extended_engines=True), jobs=1
    )
    if ext_errors:
        raise SystemExit(f"cannot regenerate, experiments failed: {ext_errors}")
    path = GOLDEN_DIR / "fig4_small_extended.txt"
    path.write_text(ext_results["fig4"].table() + "\n")
    print(f"wrote {path}")
    # the multi-tenant cache-allocation table (HPDedup effect)
    tenants_results, tenants_errors = run_suite(["tenants"], config, jobs=1)
    if tenants_errors:
        raise SystemExit(f"cannot regenerate, experiments failed: {tenants_errors}")
    path = GOLDEN_DIR / "tenants_small.txt"
    path.write_text(tenants_results["tenants"].table(fmt="{:.2f}") + "\n")
    print(f"wrote {path}")
    # the RevDedup crash-recovery sweep over a spilling store (its stdout)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(
            ["chaos", "--engine", "RevDedup", "--crash-points", "12", "--seed", "7", "--spill"]
        )
    if code != 0:
        raise SystemExit(f"cannot regenerate, the chaos sweep failed:\n{out.getvalue()}")
    path = GOLDEN_DIR / "chaos_revdedup_spill.txt"
    path.write_text(out.getvalue())
    print(f"wrote {path}")


if __name__ == "__main__":
    regenerate()
