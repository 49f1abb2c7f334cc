"""Cheap-scale versions of every figure asserting the paper's qualitative
claims (shape tests, not absolute numbers)."""

import pytest

from repro.experiments import ablations
from repro.experiments.common import clear_memo
from repro.experiments.config import ExperimentConfig
from tests.experiments import run_experiment


@pytest.fixture(scope="module")
def cfg():
    return ExperimentConfig.small()


@pytest.fixture(scope="module", autouse=True)
def _clear_memo_after():
    yield
    clear_memo()


@pytest.fixture(scope="module")
def fig4_result(cfg):
    return run_experiment("fig4", cfg)


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self, cfg):
        return run_experiment("fig2", cfg)

    def test_series_shape(self, result, cfg):
        assert len(result.x) == cfg.n_generations
        assert set(result.series) == {"MB/s", "hits/prefetch"}

    def test_throughput_decays(self, result):
        thr = result.series["MB/s"]
        early = max(thr[:4])
        late = sum(thr[-3:]) / 3
        assert late < early, "throughput must decay with generations"

    def test_locality_decays_with_throughput(self, result):
        hp = result.series["hits/prefetch"]
        assert sum(hp[-3:]) / 3 < max(hp[1:4])

    def test_table_renders(self, result):
        text = result.table()
        assert "Fig2" in text
        assert str(result.x[-1]) in text


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self, cfg):
        return run_experiment("fig3", cfg)

    def test_efficiency_below_one(self, result):
        cum = result.series["cumulative"]
        assert cum[-1] < 1.0

    def test_efficiency_within_unit_interval(self, result):
        for v in result.series["efficiency"]:
            assert 0.0 <= v <= 1.0 + 1e-9

    def test_gen_zero_perfect(self, result):
        assert result.series["efficiency"][0] == pytest.approx(1.0)


class TestFig4:
    def test_three_engines(self, fig4_result):
        assert set(fig4_result.series) == {"DeFrag", "DDFS-Like", "SiLo-Like"}

    def test_defrag_beats_ddfs_late(self, fig4_result):
        d = fig4_result.series["DeFrag"]
        b = fig4_result.series["DDFS-Like"]
        n = len(d)
        assert sum(d[-n // 3 :]) > sum(b[-n // 3 :])

    def test_silo_above_ddfs(self, fig4_result):
        s = fig4_result.series["SiLo-Like"]
        b = fig4_result.series["DDFS-Like"]
        assert sum(s) > sum(b)

    def test_positive_throughputs(self, fig4_result):
        for series in fig4_result.series.values():
            assert all(v > 0 for v in series)


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self, cfg, fig4_result):
        # fig4 ran first: fig5 reuses its memoized engine runs
        return run_experiment("fig5", cfg)

    def test_both_keep_some_redundancy(self, result):
        assert result.series["DeFrag"][-1] < 1.0
        assert result.series["SiLo-Like"][-1] < 1.0

    def test_defrag_keeps_less_than_silo(self, result):
        """The paper's headline Fig. 5 claim."""
        kept_defrag = 1 - result.series["DeFrag"][-1]
        kept_silo = 1 - result.series["SiLo-Like"][-1]
        assert kept_defrag < kept_silo

    def test_values_in_unit_interval(self, result):
        for series in result.series.values():
            for v in series:
                assert 0.0 <= v <= 1.0 + 1e-9


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self, cfg):
        return run_experiment("fig6", cfg)

    def test_defrag_reads_faster_late(self, result):
        d = result.series["DeFrag MB/s"]
        b = result.series["DDFS MB/s"]
        n = len(d)
        assert sum(d[-n // 2 :]) > sum(b[-n // 2 :])

    def test_defrag_needs_fewer_container_reads(self, result):
        assert result.series["DeFrag reads"][-1] <= result.series["DDFS reads"][-1]

    def test_read_rate_declines_for_ddfs(self, result):
        b = result.series["DDFS MB/s"]
        assert b[-1] < b[0]


class TestAblations:
    def test_alpha_sweep_tradeoff(self, cfg, monkeypatch):
        monkeypatch.setattr(ablations, "ALPHAS", (0.0, 0.2))
        res = run_experiment("alpha-sweep", cfg)
        kept = res.series["kept redund %"]
        comp = res.series["compression x"]
        assert kept[0] == pytest.approx(0.0)  # alpha=0 never rewrites
        assert kept[1] >= kept[0]
        assert comp[1] <= comp[0]  # rewrites cost compression

    def test_cache_ablation_monotone_gen1(self, cfg, monkeypatch):
        monkeypatch.setattr(ablations, "CACHE_SIZES", (2, 8))
        res = run_experiment("cache-ablation", cfg)
        assert len(res.series["gen1 MB/s"]) == 2
        # bigger cache never hurts the final generation
        assert res.series["genN MB/s"][1] >= res.series["genN MB/s"][0] * 0.9

    def test_segment_ablation_runs(self, cfg):
        res = run_experiment("segment-ablation", cfg)
        assert set(res.series) == {"content-defined", "fixed-1MiB"}
