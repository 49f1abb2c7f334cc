"""Smoke test of the benchmark's own code, at a tiny size.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import run  # noqa: E402


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd,
        stdout=subprocess.PIPE,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_with_its_unit_and_a_passing_check(workload, trace):
    proc = bench(ROOT, workload, trace)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if trace:
        assert "dominant layer:" in proc.stdout


def test_declared_metrics_match_the_code():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.PASS_SECONDS)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "chunks-defrag", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_pass_that_disagrees_is_a_failure():
    same = {"model": {"dedup_ratio": 2.0}, "counts": {"index.lookups": 7}}
    other = {"model": {"dedup_ratio": 2.0}, "counts": {"index.lookups": 8}}
    assert run.check_determinism([same, dict(same)]) == 0
    assert run.check_determinism([same, other, dict(same)]) == 1
