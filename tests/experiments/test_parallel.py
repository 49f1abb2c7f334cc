"""The parallel grid runner: determinism, failure isolation, fan-out.

The load-bearing guarantee is byte-identical output: a ``--jobs N`` run
must produce exactly the tables, metric snapshots, and event streams of
the serial run. The cheap cells the process-pool tests use live at
module top level so ``"module:function"`` references resolve inside
worker processes.
"""

import time

import pytest

from repro.experiments import common
from repro.experiments.config import ExperimentConfig
from repro.obs import ListEventSink, Observability, obs_session
from repro.parallel import CellSpec, cell_seed, resolve, run_grid
from repro.parallel.grid import _dedupe
from tests.experiments import run_experiment


@pytest.fixture(autouse=True)
def _clear():
    yield
    common.clear_memo()


# ----------------------------------------------------------------------
# cheap cell functions for the scheduler tests (must be importable in
# workers, so: top level, referenced as "tests.experiments.test_parallel:…")
# ----------------------------------------------------------------------


def echo_cell(config, tag="x"):
    import random

    import numpy as np

    # expose the per-cell seeded RNG draws so tests can prove both venues
    # seed identically
    return {"tag": tag, "py": random.random(), "np": float(np.random.random())}


def boom_cell(config):
    raise RuntimeError("injected cell failure")


def sleepy_cell(config):
    time.sleep(30)


def flaky_cell(config, sentinel=None):
    from pathlib import Path

    p = Path(sentinel)
    if not p.exists():
        p.write_text("second attempt will pass")
        raise RuntimeError("first attempt fails")
    return "recovered"


def _echo_spec(key, tag="x", seed=7):
    return CellSpec(
        key=key,
        fn="tests.experiments.test_parallel:echo_cell",
        config=ExperimentConfig.small().with_(seed=seed),
        kwargs={"tag": tag},
    )


class TestPrimitives:
    def test_cell_seed_stable_and_distinct(self):
        a = cell_seed(("group", "DeFrag", "abc"), base_seed=1)
        assert a == cell_seed(("group", "DeFrag", "abc"), base_seed=1)
        assert a != cell_seed(("group", "DeFrag", "abc"), base_seed=2)
        assert a != cell_seed(("group", "DDFS-Like", "abc"), base_seed=1)
        assert 0 <= a < 2**64

    def test_resolve(self):
        assert resolve("tests.experiments.test_parallel:echo_cell") is echo_cell
        with pytest.raises(ValueError):
            resolve("no_colon_here")

    def test_dedupe_first_wins(self):
        a, b = _echo_spec(("k",)), _echo_spec(("k",))
        assert _dedupe([a, b]) == [a]

    def test_dedupe_conflicting_work_raises(self):
        a = _echo_spec(("k",), tag="one")
        b = _echo_spec(("k",), tag="two")
        with pytest.raises(ValueError, match="different work"):
            _dedupe([a, b])


class TestVenueEquivalence:
    def test_workers_match_inline_exactly(self):
        specs = [_echo_spec((f"cell{i}",), tag=f"t{i}") for i in range(4)]
        serial = run_grid(specs, jobs=1)
        parallel = run_grid(specs, jobs=2)
        assert serial.keys() == parallel.keys()
        for key in serial:
            assert serial[key].value == parallel[key].value

    def test_distinct_cells_get_distinct_rng_streams(self):
        results = run_grid([_echo_spec((f"cell{i}",)) for i in range(3)], jobs=1)
        draws = {r.value["py"] for r in results.values()}
        assert len(draws) == 3


class TestFailureIsolation:
    def test_failed_cell_recorded_not_raised(self):
        bad = CellSpec(
            key=("bad",),
            fn="tests.experiments.test_parallel:boom_cell",
            config=ExperimentConfig.small(),
        )
        results = run_grid([bad, _echo_spec(("good",))], jobs=2)
        assert not results[("bad",)].ok
        assert "injected cell failure" in results[("bad",)].error
        assert results[("bad",)].attempts == 2  # default retries=1
        assert "injected cell failure" in results[("bad",)].describe_failure()
        assert results[("good",)].ok

    def test_retry_recovers_transient_failure(self, tmp_path):
        flaky = CellSpec(
            key=("flaky",),
            fn="tests.experiments.test_parallel:flaky_cell",
            config=ExperimentConfig.small(),
            kwargs={"sentinel": str(tmp_path / "sentinel")},
        )
        results = run_grid([flaky, _echo_spec(("pad",))], jobs=2)
        assert results[("flaky",)].ok
        assert results[("flaky",)].value == "recovered"
        assert results[("flaky",)].attempts == 2

    def test_timeout_kills_and_reports(self):
        slow = CellSpec(
            key=("slow",),
            fn="tests.experiments.test_parallel:sleepy_cell",
            config=ExperimentConfig.small(),
        )
        t0 = time.monotonic()
        results = run_grid(
            [slow, _echo_spec(("quick",))], jobs=2, timeout_s=0.5, retries=0
        )
        assert time.monotonic() - t0 < 25
        assert not results[("slow",)].ok
        assert "timed out" in results[("slow",)].error
        assert results[("quick",)].ok

    def test_inline_failure_matches_worker_failure(self):
        bad = CellSpec(
            key=("bad",),
            fn="tests.experiments.test_parallel:boom_cell",
            config=ExperimentConfig.small(),
        )
        inline = run_grid([bad], jobs=1)
        assert not inline[("bad",)].ok
        assert inline[("bad",)].attempts == 2


class TestWarmHook:
    def test_parent_precomputes_shared_workload(self):
        common.clear_memo()
        cfg = ExperimentConfig.small()
        run_grid(
            [common.group_cell_spec(cfg, "DeFrag"),
             common.group_cell_spec(cfg, "SiLo-Like")],
            jobs=2,
        )
        # the warm hook ran in the parent: the prepared-workload memo is
        # populated here, not just inside the (exited) workers
        assert common._PREP_MEMO


class TestFigureEquivalence:
    """fig4 (real simulation cells) serial vs parallel, with obs on."""

    def _run(self, jobs):
        common.clear_memo()
        cfg = ExperimentConfig.small()
        sink = ListEventSink()
        try:
            with obs_session(Observability(events=sink)) as obs:
                result = run_experiment("fig4", cfg, jobs=jobs)
        finally:
            common.clear_memo()
        return result, obs.registry.snapshot(), sink.events

    def test_jobs2_bytes_equal_serial(self):
        res1, snap1, events1 = self._run(jobs=1)
        res2, snap2, events2 = self._run(jobs=2)
        assert res1.table() == res2.table()
        assert res1.series == res2.series
        assert res1.notes == res2.notes
        assert snap1 == snap2
        assert events1 == events2
        # the equality above must not be vacuous for the time-series
        # kind: generation-boundary sampling actually ran in the workers
        assert snap1["timeseries"]
        assert any(ts["samples"] for ts in snap1["timeseries"].values())

    def test_telemetry_on_off_table_identical(self):
        """The twin-run contract at figure level: an obs session (with
        time-series sampling) must leave the result table byte-identical
        to the obs-off run."""
        common.clear_memo()
        cfg = ExperimentConfig.small()
        plain = run_experiment("fig4", cfg, jobs=1)
        common.clear_memo()
        try:
            with obs_session(Observability(events=ListEventSink())) as obs:
                traced = run_experiment("fig4", cfg, jobs=1)
        finally:
            common.clear_memo()
        assert traced.table() == plain.table()
        assert traced.series == plain.series
        # ...while telemetry really was recorded
        assert obs.registry.snapshot()["timeseries"]


class TestFigureResultFailures:
    def test_failed_cells_render_in_table_and_nan_series(self, monkeypatch):
        real = common.group_cell

        def defrag_only_fails(config, engine):
            if engine == "DeFrag":
                raise RuntimeError("injected DeFrag failure")
            return real(config, engine)

        # cells resolve "repro.experiments.common:group_cell" at run
        # time, so patching the module attribute reaches inline execution
        monkeypatch.setattr(common, "group_cell", defrag_only_fails)
        common.clear_memo()
        result = run_experiment("fig4", ExperimentConfig.small(), jobs=1)
        assert result.failures
        assert "# FAILED cell" in result.table()
        import math

        assert all(math.isnan(v) for v in result.series["DeFrag"])
        assert not any(math.isnan(v) for v in result.series["DDFS-Like"])
