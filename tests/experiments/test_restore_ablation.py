"""The restore-ablation grid: policy x cache size x FAA window."""

import math

import pytest

from repro._util import MIB
from repro.cli import build_parser
from repro.experiments import restore_ablation
from repro.experiments.config import ExperimentConfig
from repro.parallel import run_grid
from tests.experiments import run_experiment


@pytest.fixture(scope="module")
def cfg():
    """A shrunken preset so the 6-cell grid stays test-suite cheap."""
    return ExperimentConfig.small().with_(fs_bytes=4 * MIB, n_generations=3)


@pytest.fixture(scope="module")
def result(cfg):
    return run_experiment("restore-ablation", cfg)


class TestGrid:
    def test_one_cell_per_engine_policy(self, cfg):
        specs = restore_ablation.cells(cfg)
        assert len(specs) == 6
        pairs = {(s.kwargs["engine"], s.kwargs["policy"]) for s in specs}
        assert pairs == {
            (e, p)
            for e in ("DeFrag", "DDFS-Like")
            for p in ("lru", "lfu", "belady")
        }

    def test_sweep_combo_order(self):
        combos = restore_ablation.sweep_combos((4, 16), (0, 2048))
        assert combos == [(4, 0), (4, 2048), (16, 0), (16, 2048)]


class TestResult:
    def test_series_cover_every_engine_policy(self, result):
        for engine in ("DeFrag", "DDFS"):
            for policy in ("lru", "lfu", "belady"):
                assert f"{engine}/{policy} seeks" in result.series
                assert f"{engine}/{policy} MB/s" in result.series

    def test_x_axis_is_the_combo_grid(self, result):
        assert result.x == list(range(len(restore_ablation.sweep_combos())))
        assert "combos" in result.notes

    def test_belady_lower_bounds_demand_combos(self, result):
        """On FAA-off combos the sweep is demand-only paging, where MIN
        is provably optimal: belady seeks <= lru/lfu seeks."""
        demand = [
            i
            for i, (_, w) in enumerate(restore_ablation.sweep_combos())
            if w == 0
        ]
        for engine in ("DeFrag", "DDFS"):
            opt = result.series[f"{engine}/belady seeks"]
            for policy in ("lru", "lfu"):
                online = result.series[f"{engine}/{policy} seeks"]
                for i in demand:
                    assert opt[i] <= online[i]

    def test_faa_combo_never_seeks_more(self, result):
        """Forward assembly + read-ahead cannot price more positionings
        than the same cache without them."""
        combos = restore_ablation.sweep_combos()
        by_cache = {}
        for i, (cache, window) in enumerate(combos):
            by_cache.setdefault(cache, {})[window] = i
        for engine in ("DeFrag", "DDFS"):
            seeks = result.series[f"{engine}/lru seeks"]
            for cache, windows in by_cache.items():
                assert seeks[windows[2048]] <= seeks[windows[0]]

    def test_failed_cell_goes_nan(self, cfg):
        specs = restore_ablation.cells(cfg)
        grid = run_grid(specs[:1], jobs=1)  # only the first cell ran
        res = restore_ablation.assemble(cfg, grid)
        first = specs[0]
        ok_key = f"{'DDFS' if first.kwargs['engine'] == 'DDFS-Like' else first.kwargs['engine']}/{first.kwargs['policy']} seeks"
        assert not math.isnan(res.series[ok_key][0])
        missing = [k for k in res.series if k != ok_key and k.endswith("seeks")]
        assert all(math.isnan(res.series[k][0]) for k in missing)

    def test_table_renders(self, result):
        text = result.table()
        assert "AblationRestore" in text


class TestCli:
    def test_parser_accepts_restore_flags(self):
        args = build_parser().parse_args(
            [
                "fig6",
                "--restore-policy",
                "belady",
                "--faa-window",
                "2048",
                "--readahead",
            ]
        )
        assert args.restore_policy == "belady"
        assert args.faa_window == 2048
        assert args.readahead is True

    def test_parser_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig6", "--restore-policy", "mru"])

    def test_restore_ablation_registered(self):
        args = build_parser().parse_args(["restore-ablation", "--scale", "small"])
        assert args.experiment == "restore-ablation"

    def test_flags_reach_config(self):
        from repro.cli import _make_config

        args = build_parser().parse_args(
            ["fig6", "--restore-policy", "lfu", "--faa-window", "512", "--readahead"]
        )
        config = _make_config(args)
        assert config.restore_policy == "lfu"
        assert config.restore_faa_window == 512
        assert config.restore_readahead is True

    def test_defaults_keep_default_config(self):
        from repro.cli import _make_config

        args = build_parser().parse_args(["fig6", "--scale", "small"])
        config = _make_config(args)
        assert config == ExperimentConfig.small()
