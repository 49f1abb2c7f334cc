"""Bench: the segment-at-a-time ingest path.

Times the fig4 three-engine group ingest. Equivalence with the
chunk-at-a-time ladders is proven in
``tests/dedup/test_batch_equivalence.py``.
"""

from repro.experiments.common import clear_memo, run_group_workload


def test_bench_ingest_batch(benchmark, bench_config):
    def run():
        clear_memo()
        return run_group_workload(bench_config)

    benchmark.pedantic(run, rounds=1, iterations=1)
    clear_memo()
