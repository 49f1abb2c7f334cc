"""The multi-tenant inline-cache allocation experiment (HPDedup effect).

HPDedup (arXiv:1702.08153) observes that when concurrent backup streams
share one bounded inline fingerprint cache, a *global* LRU lets a
low-locality tenant pollute the budget: its never-repeating
fingerprints evict the other tenants' working sets, so the aggregate
inline dedup ratio collapses. Allocating the budget *per tenant,
proportionally to measured locality* (prioritized allocation) restores
it.

This experiment reproduces that effect on the repo's substrate: three
tenants with deliberately skewed locality —

====== ==============================================================
tenant stream
====== ==============================================================
alpha  high locality: full backups of a slowly-churning FS (most
       chunks repeat generation over generation)
beta   medium locality: same shape, heavier churn
gamma  the polluter: a *fresh* file system every generation — its
       fingerprints never repeat, every cache entry it takes is wasted
====== ==============================================================

— are multiplexed through the sharded ingest front-end
(:class:`~repro.sharding.frontend.IngestFrontend`) in ``cache_only``
mode, where an inline-cache miss is final: the chunk is written and its
dedup deferred to an out-of-line pass. The inline dedup percentage
(bytes removed inline / logical bytes) therefore directly measures
allocation quality. One column per policy; rows are the three tenants
plus the aggregate. The headline note verifies the HPDedup claim:
**prioritized allocation strictly beats the global LRU on total inline
dedup** for this skewed mix.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.common import (
    FigureResult,
    cell_values,
    config_fingerprint,
)
from repro.experiments.config import ExperimentConfig
from repro.parallel import CellSpec, GridError
from repro.workloads.generators import derive, single_user_stream

#: allocation policies compared, in column order
POLICIES = ("global-lru", "prioritized")

#: row legend: three skewed tenants, then the aggregate
TENANTS = ("alpha", "beta", "gamma")
ROWS = TENANTS + ("TOTAL",)


def _tenant_streams(config: ExperimentConfig):
    """The skewed mix, derived from the config scale.

    ``alpha``/``beta`` are ``fs_bytes/16`` file systems backed up in
    full every generation (alpha with gentle churn, beta with heavy
    churn) — sized so their working sets fit a *fair share* of the
    inline cache but not the slice a polluted global LRU leaves them;
    ``gamma`` is ``fs_bytes/4`` of *fresh* data per generation (a new
    FS seeded per generation), so it floods the shared cache with
    fingerprints that never pay off.
    """
    from repro.sharding import TenantStream
    from repro.workloads.fs_model import ChurnProfile

    n_gens = config.n_generations
    small_fs = max(config.fs_bytes // 16, 1 << 20)
    big_fs = max(config.fs_bytes // 4, 1 << 21)
    alpha = list(
        single_user_stream(
            n_generations=n_gens,
            fs_bytes=small_fs,
            seed=derive(config.seed, "tenant-alpha"),
            churn=ChurnProfile(modify_frac=0.04, file_create_frac=0.005),
            label="alpha",
        )
    )
    beta = list(
        single_user_stream(
            n_generations=n_gens,
            fs_bytes=small_fs,
            seed=derive(config.seed, "tenant-beta"),
            churn=ChurnProfile(
                modify_frac=0.30, file_rewrite_frac=0.08, file_create_frac=0.03
            ),
            label="beta",
        )
    )
    gamma = []
    for gen in range(n_gens):
        job = next(
            iter(
                single_user_stream(
                    n_generations=1,
                    fs_bytes=big_fs,
                    seed=derive(config.seed, f"tenant-gamma-{gen}"),
                    label="gamma",
                )
            )
        )
        gamma.append(job._replace(generation=gen))
    return [
        TenantStream("alpha", alpha),
        TenantStream("beta", beta),
        TenantStream("gamma", gamma),
    ]


def _make_allocator(policy: str, capacity: int):
    from repro.sharding import GlobalLRUAllocator, PrioritizedAllocator

    if policy == "global-lru":
        return GlobalLRUAllocator(capacity)
    if policy == "prioritized":
        # a tight rebalance window so locality estimates settle within
        # the first generation round even at the small scale
        return PrioritizedAllocator(capacity, rebalance_every=256)
    raise ValueError(f"unknown allocation policy: {policy!r}")


def tenants_cell(config: ExperimentConfig, policy: str) -> Dict:
    """Grid cell: the full skewed mix under one allocation policy.

    Returns the per-tenant inline dedup percentages (plus the
    aggregate), cache hit rates, and the final cache shares.
    """
    from repro.sharding import IngestFrontend, ShardedChunkIndex, TenantStoreSet
    from repro.storage.disk import DiskModel
    from repro.storage.store import StoreConfig

    n_shards = config.shard.n_shards if config.shard is not None else 2
    disk = DiskModel(profile=config.disk)
    index = ShardedChunkIndex.create(
        disk,
        n_shards=n_shards,
        expected_entries=config.bloom_capacity,
        page_cache_pages=config.index_page_cache_pages,
    )
    stores = TenantStoreSet(
        disk,
        StoreConfig(
            container_bytes=config.container_bytes,
            seal_seeks=0,
            cache_containers=config.restore_cache_containers,
        ),
    )
    frontend = IngestFrontend(
        index,
        stores,
        _make_allocator(policy, config.tenant_cache_chunks),
        cache_only=True,
        batch_chunks=128,
    )
    reports = frontend.run(_tenant_streams(config))

    logical = sum(r.logical_bytes for r in reports.values())
    removed = sum(r.removed_bytes for r in reports.values())
    rows = [reports[t].inline_dedup_pct for t in TENANTS]
    rows.append(100.0 * removed / max(logical, 1))
    return {
        "row": rows,
        "hit_rate": {
            t: reports[t].cache_hits / max(reports[t].cache_lookups, 1)
            for t in TENANTS
        },
        "shares": dict(frontend.allocator.shares()),
        "n_shards": n_shards,
        "logical_bytes": logical,
    }


def cells(config: ExperimentConfig) -> List[CellSpec]:
    """The tenants grid: one mix run per allocation policy."""
    return [
        CellSpec(
            key=("tenants", policy, config_fingerprint(config)),
            fn="repro.experiments.tenants:tenants_cell",
            config=config,
            kwargs={"policy": policy},
        )
        for policy in POLICIES
    ]


def assemble(config: ExperimentConfig, results: Dict) -> FigureResult:
    """Rebuild the tenants table from grid cell payloads."""
    specs = cells(config)
    values, failures = cell_values(specs, results)
    if not values:
        raise GridError(f"tenants: every cell failed: {failures}")
    nan = [float("nan")] * len(ROWS)
    series = {}
    for spec in specs:
        payload = values.get(spec.key)
        series[spec.kwargs["policy"]] = (
            list(payload["row"]) if payload else list(nan)
        )
    notes = {
        "rows": "; ".join(
            f"{i + 1}: {name}" for i, name in enumerate(ROWS)
        )
        + " (inline dedup %, cache_only)",
    }
    glob, prio = series.get("global-lru"), series.get("prioritized")
    if glob is not None and prio is not None:
        total = len(ROWS) - 1
        notes["prioritized_total_gt_global"] = (
            f"{prio[total]:.2f} > {glob[total]:.2f}: {prio[total] > glob[total]}"
        )
    return FigureResult(
        figure="Tenants",
        title="inline dedup % by cache allocation policy (HPDedup effect)",
        x_label="tenant-idx",
        x=list(range(1, len(ROWS) + 1)),
        series=series,
        notes=notes,
        failures=failures,
    )
