"""The multi-tenant cache-allocation experiment (HPDedup effect).

Pins the experiment's acceptance claim — prioritized allocation gives
strictly more total inline dedup than a global LRU on the skewed
three-tenant mix — plus the grid plumbing (cells/assemble round-trip,
failure tolerance) and the golden snapshot of the small-scale table.
"""

import math
import pathlib

from repro.experiments.config import ExperimentConfig
from repro.experiments.suite import run_suite
from repro.experiments.tenants import (
    POLICIES,
    ROWS,
    TENANTS,
    assemble,
    cells,
    tenants_cell,
)
from repro.parallel import run_grid
from tests.experiments import run_experiment

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

CONFIG = ExperimentConfig.small()


class TestCells:
    def test_one_cell_per_policy(self):
        specs = cells(CONFIG)
        assert [s.kwargs["policy"] for s in specs] == list(POLICIES)
        assert len({s.key for s in specs}) == len(POLICIES)

    def test_cell_payload_shape(self):
        payload = tenants_cell(CONFIG, "prioritized")
        assert len(payload["row"]) == len(ROWS)
        assert set(payload["hit_rate"]) == set(TENANTS)
        assert payload["n_shards"] == 2
        assert payload["logical_bytes"] > 0
        assert all(0.0 <= pct <= 100.0 for pct in payload["row"])

    def test_shard_count_follows_the_config(self):
        from repro.sharding import ShardConfig

        payload = tenants_cell(
            CONFIG.with_(shard=ShardConfig(n_shards=3)), "global-lru"
        )
        assert payload["n_shards"] == 3


class TestHPDedupEffect:
    def test_prioritized_strictly_beats_global_lru_on_total(self):
        """The acceptance criterion: on the skewed mix, prioritized
        allocation's aggregate inline dedup strictly exceeds the
        polluted global LRU's."""
        result = run_experiment("tenants", CONFIG)
        total = len(ROWS) - 1
        prio = result.series["prioritized"][total]
        glob = result.series["global-lru"][total]
        assert prio > glob
        assert "True" in result.notes["prioritized_total_gt_global"]

    def test_the_polluter_never_dedups(self):
        """gamma's fingerprints never repeat, so its inline dedup is 0
        under every policy — the effect is pure cache allocation, not
        workload leakage."""
        result = run_experiment("tenants", CONFIG)
        gamma = TENANTS.index("gamma")
        for policy in POLICIES:
            assert result.series[policy][gamma] == 0.0

    def test_high_locality_tenant_wins_under_prioritization(self):
        result = run_experiment("tenants", CONFIG)
        alpha = TENANTS.index("alpha")
        assert (
            result.series["prioritized"][alpha]
            > result.series["global-lru"][alpha]
        )


class TestAssemble:
    def test_assemble_round_trips_run_grid(self):
        results = run_grid(cells(CONFIG), jobs=1)
        figure = assemble(CONFIG, results)
        assert figure.figure == "Tenants"
        assert set(figure.series) == set(POLICIES)
        assert figure.x == list(range(1, len(ROWS) + 1))
        assert not figure.failures

    def test_missing_cell_yields_nan_row(self):
        specs = cells(CONFIG)
        results = run_grid(specs, jobs=1)
        dropped = specs[0].key
        partial = {k: v for k, v in results.items() if k != dropped}
        figure = assemble(CONFIG, partial)
        assert all(
            math.isnan(v) for v in figure.series[specs[0].kwargs["policy"]]
        )


class TestGolden:
    def test_small_table_byte_identical(self):
        results, errors = run_suite(["tenants"], CONFIG, jobs=1)
        assert not errors, errors
        expected = (GOLDEN_DIR / "tenants_small.txt").read_text()
        assert results["tenants"].table(fmt="{:.2f}") + "\n" == expected
