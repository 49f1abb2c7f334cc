"""Golden-output regression: the default tables are pinned byte-for-byte.

``repro all`` is the repo's headline artifact; its fig4/fig6 tables at
the small preset are committed under ``tests/experiments/golden/`` and
asserted byte-identical here. Any change to the default ingest or
restore path — however well-intentioned — that moves a single digit
fails this test.

If the change is *intentional*, regenerate and commit the snapshots::

    PYTHONPATH=src python tests/experiments/golden/regen.py

and explain the move in the commit message.
"""

import difflib
import pathlib

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.suite import run_suite

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
FIGURES = ("fig4", "fig6")


@pytest.fixture(scope="module")
def suite_results():
    results, errors = run_suite(list(FIGURES), ExperimentConfig.small(), jobs=1)
    assert not errors, errors
    return results


class TestGoldenTables:
    @pytest.mark.parametrize("name", FIGURES)
    def test_table_byte_identical(self, suite_results, name):
        golden_path = GOLDEN_DIR / f"{name}_small.txt"
        expected = golden_path.read_text()
        actual = suite_results[name].table() + "\n"
        if actual != expected:
            diff = "\n".join(
                difflib.unified_diff(
                    expected.splitlines(),
                    actual.splitlines(),
                    fromfile=str(golden_path),
                    tofile=f"{name} (current)",
                    lineterm="",
                )
            )
            pytest.fail(
                f"{name} table drifted from its golden snapshot; if the "
                f"change is intentional run tests/experiments/golden/"
                f"regen.py and commit the diff:\n{diff}"
            )

    def test_byte_level_fig4_byte_identical(self):
        """The byte-level ingest variant (bytes -> CDC -> fingerprint ->
        engines) is pinned too: chunker or fingerprint changes that move
        its cuts show up here as table drift."""
        from repro.experiments.common import clear_memo

        clear_memo()
        try:
            results, errors = run_suite(
                ["fig4"], ExperimentConfig.small().with_(byte_level=True), jobs=1
            )
        finally:
            clear_memo()
        assert not errors, errors
        golden_path = GOLDEN_DIR / "fig4_small_bytes.txt"
        expected = golden_path.read_text()
        actual = results["fig4"].table() + "\n"
        if actual != expected:
            diff = "\n".join(
                difflib.unified_diff(
                    expected.splitlines(),
                    actual.splitlines(),
                    fromfile=str(golden_path),
                    tofile="fig4 --bytes (current)",
                    lineterm="",
                )
            )
            pytest.fail(
                "byte-level fig4 table drifted from its golden snapshot; "
                "if intentional run tests/experiments/golden/regen.py:"
                f"\n{diff}"
            )

    def test_frontier_byte_identical(self):
        """The policy-frontier table (every engine, maintenance driven)
        is pinned too — it is the PR's acceptance artifact, and its
        verification notes (RevDedup beats DeFrag on latest-backup seeks,
        loses on total cost) must stay True by construction."""
        results, errors = run_suite(["frontier"], ExperimentConfig.small(), jobs=1)
        assert not errors, errors
        table = results["frontier"].table(fmt="{:.2f}") + "\n"
        assert "revdedup_latest_seeks_lt_defrag" in table
        assert "True" in table and "False" not in table
        golden_path = GOLDEN_DIR / "frontier_small.txt"
        expected = golden_path.read_text()
        if table != expected:
            diff = "\n".join(
                difflib.unified_diff(
                    expected.splitlines(),
                    table.splitlines(),
                    fromfile=str(golden_path),
                    tofile="frontier (current)",
                    lineterm="",
                )
            )
            pytest.fail(
                "frontier table drifted from its golden snapshot; if "
                "intentional run tests/experiments/golden/regen.py:"
                f"\n{diff}"
            )

    def test_extended_fig4_byte_identical(self):
        """fig4 with ``--extended-engines`` covers RevDedup and Hybrid
        columns; pinned so the maintenance engines' ingest path cannot
        drift silently either."""
        results, errors = run_suite(
            ["fig4"], ExperimentConfig.small().with_(extended_engines=True), jobs=1
        )
        assert not errors, errors
        table = results["fig4"].table() + "\n"
        assert "RevDedup" in table and "Hybrid" in table
        golden_path = GOLDEN_DIR / "fig4_small_extended.txt"
        expected = golden_path.read_text()
        if table != expected:
            diff = "\n".join(
                difflib.unified_diff(
                    expected.splitlines(),
                    table.splitlines(),
                    fromfile=str(golden_path),
                    tofile="fig4 --extended-engines (current)",
                    lineterm="",
                )
            )
            pytest.fail(
                "extended fig4 table drifted from its golden snapshot; "
                "if intentional run tests/experiments/golden/regen.py:"
                f"\n{diff}"
            )

    def test_revdedup_chaos_spill_byte_identical(self, capsys):
        """The RevDedup crash-recovery sweep over a spilling store. Its
        crash sites are indexed by charged disk operation, so a seal or
        read charge that moves inside ingest or maintenance moves a crash
        site and shows here, even when every figure stays the same."""
        from repro.cli import main

        argv = ["chaos", "--engine", "RevDedup", "--crash-points", "12", "--seed", "7"]
        assert main(argv + ["--spill"]) == 0
        actual = capsys.readouterr().out
        golden_path = GOLDEN_DIR / "chaos_revdedup_spill.txt"
        expected = golden_path.read_text()
        assert actual == expected, "\n".join(
            difflib.unified_diff(
                expected.splitlines(),
                actual.splitlines(),
                fromfile=str(golden_path),
                tofile="chaos --engine RevDedup --spill (current)",
                lineterm="",
            )
        )

    def test_default_fig6_has_no_restore_columns(self, suite_results):
        """The restore-subsystem columns only appear under non-default
        restore knobs; the recorded default table must not grow them."""
        table = suite_results["fig6"].table()
        assert "seeks" not in table
        assert "restore:" not in table

    def test_golden_files_present(self):
        for name in FIGURES:
            assert (GOLDEN_DIR / f"{name}_small.txt").is_file()
        assert (GOLDEN_DIR / "fig4_small_bytes.txt").is_file()
        assert (GOLDEN_DIR / "frontier_small.txt").is_file()
        assert (GOLDEN_DIR / "fig4_small_extended.txt").is_file()
        assert (GOLDEN_DIR / "chaos_revdedup_spill.txt").is_file()
