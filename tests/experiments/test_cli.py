import pytest

from repro.cli import build_parser, main
from repro.experiments.common import clear_memo


@pytest.fixture(autouse=True)
def _clear():
    yield
    clear_memo()


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["fig2"])
        assert args.experiment == "fig2"
        assert args.scale == "default"
        assert args.seed is None

    def test_overrides(self):
        args = build_parser().parse_args(
            ["fig4", "--scale", "small", "--seed", "9", "--alpha", "0.3"]
        )
        assert args.scale == "small"
        assert args.seed == 9
        assert args.alpha == 0.3

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_jobs_and_cell_timeout(self):
        args = build_parser().parse_args(["all", "--jobs", "4", "--cell-timeout", "30"])
        assert args.jobs == 4
        assert args.cell_timeout == 30.0

    def test_jobs_defaults_to_serial(self):
        args = build_parser().parse_args(["fig4"])
        assert args.jobs == 1
        assert args.cell_timeout is None


class TestTraceParser:
    def test_trace_takes_target_and_events(self):
        args = build_parser().parse_args(
            ["trace", "fig4", "--scale", "small", "--events", "out.jsonl"]
        )
        assert args.experiment == "trace"
        assert args.target == "fig4"
        assert args.events == "out.jsonl"

    def test_stats_last(self):
        args = build_parser().parse_args(["stats", "--last"])
        assert args.experiment == "stats"
        assert args.last is True

    def test_trace_perfetto_flag(self):
        args = build_parser().parse_args(
            ["trace", "fig2", "--perfetto", "trace.json"]
        )
        assert args.perfetto == "trace.json"

    def test_dash_flags(self):
        args = build_parser().parse_args(
            ["dash", "--stats", "a.json", "--stats", "b.json", "--out", "d.html"]
        )
        assert args.experiment == "dash"
        assert args.stats == ["a.json", "b.json"]
        assert args.out == "d.html"

    def test_dash_defaults(self):
        args = build_parser().parse_args(["dash"])
        assert args.stats is None
        assert args.out == "dash.html"

    def test_verbosity_flags(self):
        assert build_parser().parse_args(["-vv", "fig2"]).verbose == 2
        assert build_parser().parse_args(["-q", "fig2"]).quiet is True

    def test_trace_requires_known_target(self):
        with pytest.raises(SystemExit):
            main(["trace"])
        with pytest.raises(SystemExit):
            main(["trace", "fig99"])


class TestTraceMain:
    def test_trace_writes_events_and_snapshot(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        events = tmp_path / "events.jsonl"
        assert main(
            ["trace", "fig2", "--scale", "small", "--events", str(events)]
        ) == 0
        out = capsys.readouterr().out
        assert "Fig2" in out
        assert "phase spans" in out
        assert "wrote" in out and "events" in out
        assert events.exists()
        assert (tmp_path / ".repro_stats.json").exists()

        from repro.obs import read_jsonl

        spans = read_jsonl(events, type="segment_span")
        assert spans
        assert {"engine", "generation", "segment"} <= set(spans[0])

    def test_trace_exports_perfetto(self, tmp_path, monkeypatch, capsys):
        import json

        monkeypatch.chdir(tmp_path)
        trace = tmp_path / "trace.json"
        assert main(
            ["trace", "fig2", "--scale", "small", "--perfetto", str(trace)]
        ) == 0
        assert "trace slices" in capsys.readouterr().out
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]
        assert all(e["ph"] in ("X", "M") for e in doc["traceEvents"])
        # provenance rides in otherData
        assert doc["otherData"]["target"] == "fig2"

    def test_trace_snapshot_carries_manifest(self, tmp_path, monkeypatch, capsys):
        import json

        monkeypatch.chdir(tmp_path)
        assert main(["trace", "fig2", "--scale", "small"]) == 0
        data = json.loads((tmp_path / ".repro_stats.json").read_text())
        assert data["manifest"]["target"] == "fig2"
        assert data["manifest"]["seed"] is not None
        assert "timeseries" in data["metrics"]

    def test_stats_renders_last_snapshot(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "fig2", "--scale", "small"]) == 0
        capsys.readouterr()
        assert main(["stats", "--last"]) == 0
        out = capsys.readouterr().out
        assert "phase spans" in out
        assert "== run ==" in out
        assert "time series" in out

    def test_stats_renders_pre_manifest_snapshot(
        self, tmp_path, monkeypatch, capsys
    ):
        """Bare snapshots from older checkouts still render."""
        import json

        monkeypatch.chdir(tmp_path)
        (tmp_path / ".repro_stats.json").write_text(
            json.dumps({"counters": {"c": 1}})
        )
        assert main(["stats", "--last"]) == 0
        out = capsys.readouterr().out
        assert "counters" in out
        assert "== run ==" not in out

    def test_dash_from_trace_snapshot(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "fig2", "--scale", "small"]) == 0
        capsys.readouterr()
        assert main(["dash", "--out", "d.html"]) == 0
        assert "dashboard written" in capsys.readouterr().out
        text = (tmp_path / "d.html").read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "Run: fig2" in text
        assert "<script" not in text

    def test_dash_without_snapshots(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["dash"]) == 0
        assert (tmp_path / "dash.html").exists()

    def test_stats_without_snapshot_fails(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["stats", "--last"]) == 1
        assert "trace" in capsys.readouterr().out


class TestMain:
    def test_fig2_small(self, capsys):
        assert main(["fig2", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "Fig2" in out
        assert "MB/s" in out

    def test_alpha_sweep_small(self, capsys):
        assert main(["alpha-sweep", "--scale", "small"]) == 0
        assert "AblationAlpha" in capsys.readouterr().out

    def test_seed_changes_output(self, capsys):
        main(["fig2", "--scale", "small", "--seed", "1"])
        a = capsys.readouterr().out
        main(["fig2", "--scale", "small", "--seed", "2"])
        b = capsys.readouterr().out
        assert a != b

    def test_jobs2_output_identical_to_serial(self, capsys):
        assert main(["fig4", "--scale", "small"]) == 0
        serial = capsys.readouterr().out
        clear_memo()
        assert main(["fig4", "--scale", "small", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial


class TestMainFailurePaths:
    def test_failed_cell_marks_table_and_exit_nonzero(self, monkeypatch, capsys):
        """A cell raising mid-run must surface as a marked-failed row and
        a nonzero exit from `repro all`, not an exception."""
        from repro.experiments import common, suite

        real = common.group_cell

        def defrag_fails(config, engine):
            if engine == "DeFrag":
                raise RuntimeError("injected mid-cell failure")
            return real(config, engine)

        monkeypatch.setattr(common, "group_cell", defrag_fails)
        monkeypatch.setattr(suite, "ALL_FIGURES", ("fig4",))
        assert main(["all", "--scale", "small"]) == 1
        out = capsys.readouterr().out
        assert "# FAILED cell" in out

    def test_every_cell_failing_reports_experiment_failed(
        self, monkeypatch, capsys
    ):
        from repro.experiments import common, suite

        def always_fails(config, engine):
            raise RuntimeError("nothing works")

        monkeypatch.setattr(common, "group_cell", always_fails)
        monkeypatch.setattr(suite, "ALL_FIGURES", ("fig4",))
        assert main(["all", "--scale", "small"]) == 1
        assert "FAILED fig4" in capsys.readouterr().out

    def test_trace_failed_cell_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        """`repro trace` shares the suite path: a failed cell marks the
        table and fails the exit code, exactly as `repro fig4` does."""
        from repro.experiments import common

        real = common.group_cell

        def defrag_fails(config, engine):
            if engine == "DeFrag":
                raise RuntimeError("injected mid-cell failure")
            return real(config, engine)

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(common, "group_cell", defrag_fails)
        assert main(["trace", "fig4", "--scale", "small"]) == 1
        out = capsys.readouterr().out
        assert "# FAILED cell" in out
        assert "metrics snapshot saved" in out

    def test_trace_every_cell_failing_reports_experiment_failed(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.experiments import common

        def always_fails(config, engine):
            raise RuntimeError("nothing works")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(common, "group_cell", always_fails)
        assert main(["trace", "fig4", "--scale", "small"]) == 1
        assert "FAILED fig4" in capsys.readouterr().out
