"""Experiment configuration: scaling knobs and calibrated defaults.

The paper's datasets are hundreds of GB; the simulation reproduces their
*redundancy structure* at adjustable scale. Cache capacities are the one
thing that must scale with the data (a cache that covers the whole store
hides every locality effect), so the config owns them alongside the
workload sizes.

Calibration notes (see EXPERIMENTS.md for measured outcomes):

* disk: 8 ms positioning / 300 MB/s streaming — a circa-2012 backup
  appliance's RAID; makes generation-1 ingest land near the paper's
  ~200 MB/s scale.
* DDFS prefetch cache: 12 container sections against a ≥16-container
  working set per generation — same "cache ≪ store" regime as the real
  647 GB vs ~1 GiB cache setup.
* churn: ~5% of files edited per full-backup generation inside a stable
  30% hot set; incremental runs use heavier churn so incrementals have
  realistic volume.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro._util import MIB
from repro.sharding.config import ShardConfig
from repro.storage.disk import DiskProfile
from repro.storage.store import StoreConfig
from repro.workloads.fs_model import ChurnProfile

#: The simulated backup appliance disk used by all recorded experiments.
APPLIANCE_2012 = DiskProfile(name="appliance-2012", seek_time_s=8e-3, seq_bandwidth=300e6)


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of a figure run.

    Attributes:
        seed: workload determinism seed.
        fs_bytes: single-user FS size (Fig. 2/3 workloads).
        n_generations: generations for the 20-generation figures.
        per_user_bytes: per-student FS size (Fig. 4/5/6 workload).
        n_users / n_backups: group workload shape (5 users, 66 backups).
        alpha: DeFrag's SPL threshold (paper: 0.1).
        disk: disk profile.
        container_bytes: container payload capacity (DDFS-style 4 MiB).
        cache_containers: DDFS/DeFrag prefetch-cache capacity.
        silo_block_bytes / silo_cache_blocks: SiLo block sizing.
        silo_similarity_capacity: SiLo's bounded RAM similarity-index
            size in representatives (its fixed RAM budget, scaled to the
            simulated data size the way SiLo's RAM scales to real TBs).
        prefetch_ahead: container metadata sections streamed per index
            hit (DDFS read-ahead on the sequential container log).
        index_page_cache_pages: RAM page cache of the on-disk index.
        bloom_capacity / bloom_fp_rate: summary-vector sizing.
        restore_cache_containers: restore reader's container cache.
        churn_full / churn_incremental: churn profiles per workload kind.
        incremental_file_bytes: avg file size for the incremental
            workload (larger files keep segment reps stable, as real
            mailbox/log-style data does).
    """

    seed: int = 2012
    fs_bytes: int = 128 * MIB
    n_generations: int = 20
    per_user_bytes: int = 96 * MIB
    n_users: int = 5
    n_backups: int = 66
    alpha: float = 0.1
    disk: DiskProfile = APPLIANCE_2012
    container_bytes: int = 4 * MIB
    cache_containers: int = 24
    prefetch_ahead: int = 4
    silo_block_bytes: int = 8 * MIB
    silo_cache_blocks: int = 8
    silo_similarity_capacity: int = 448
    index_page_cache_pages: int = 16
    bloom_capacity: int = 4_000_000
    bloom_fp_rate: float = 0.01
    restore_cache_containers: int = 8
    #: restore-cache eviction policy: 'lru' (default, the recorded
    #: figures' behaviour), 'lfu', or 'belady' (the offline upper bound)
    restore_policy: str = "lru"
    #: forward-assembly-area window in chunks (0 = off: run-at-a-time
    #: restore, the recorded figures' behaviour)
    restore_faa_window: int = 0
    #: batch adjacent container reads into one priced positioning
    restore_readahead: bool = False
    churn_full: ChurnProfile = field(
        default_factory=lambda: ChurnProfile(
            modify_frac=0.06,
            edits_per_file_mean=6.0,
            edit_run_mean=1.3,
            hot_fraction=0.3,
            file_move_frac=0.04,
        )
    )
    churn_incremental: ChurnProfile = field(
        default_factory=lambda: ChurnProfile(
            modify_frac=0.10,
            edits_per_file_mean=4.0,
            hot_fraction=0.3,
            file_move_frac=0.04,
        )
    )
    incremental_file_bytes: int = 2 * MIB
    #: feed the group workload through the byte-level ingest path:
    #: per-generation buffers are materialized from the churn model,
    #: CDC-chunked by the whole-buffer Gear chunker, and batch
    #: fingerprinted (bytes -> CDC -> fingerprint -> engine ->
    #: containers). False keeps the chunk-level streams the recorded
    #: figures were measured with.
    byte_level: bool = False
    #: explicit container-log configuration (durability journal, retry
    #: policy, cache sizes). None keeps the experiment convention:
    #: append-only log (seal_seeks=0), ``container_bytes`` capacity,
    #: ``restore_cache_containers`` reader cache, no journal — exactly
    #: what the recorded figures were measured with.
    store: Optional[StoreConfig] = None
    #: shard the on-disk fingerprint index: ``None`` keeps the classic
    #: single :class:`~repro.index.full_index.DiskChunkIndex` (the
    #: recorded figures' substrate); a :class:`~repro.sharding.config
    #: .ShardConfig` routes it through ``repro.sharding`` — with
    #: ``n_shards=1`` the wrapper drives one identically-sized shard
    #: verbatim, byte-identical to ``None`` on every experiment (pinned by
    #: ``tests/properties/test_shard_equivalence.py``)
    shard: Optional[ShardConfig] = None
    #: inline fingerprint-cache budget (chunks) shared by all tenants in
    #: the ``tenants`` experiment — the HPDedup contention point; sized
    #: well below the tenants' combined working set so allocation policy
    #: matters
    tenant_cache_chunks: int = 4096
    #: hybrid engine: bounded inline RAM fingerprint cache, in chunks
    #: (the engine's *only* inline dedup structure; sized well below a
    #: generation's chunk count so deferred dedup has work to do)
    hybrid_cache_chunks: int = 16384
    #: maintenance engines (RevDedup, Hybrid): containers whose live
    #: fraction falls strictly below this are compacted by the
    #: out-of-line pass
    maintenance_min_utilization: float = 0.5
    #: also run the maintenance-phase engines (RevDedup, Hybrid) in
    #: fig4/fig6 and the restore ablation; False keeps the recorded
    #: figures' engine set (and their committed golden tables)
    extended_engines: bool = False

    # -- scale presets --------------------------------------------------

    @classmethod
    def small(cls) -> "ExperimentConfig":
        """Seconds-fast scale for tests and CI (cache ratios preserved)."""
        return cls(
            fs_bytes=16 * MIB,
            n_generations=8,
            per_user_bytes=12 * MIB,
            n_backups=15,
            cache_containers=4,
            prefetch_ahead=2,
            silo_cache_blocks=3,
            silo_similarity_capacity=56,
            restore_cache_containers=4,
            hybrid_cache_chunks=1024,
            tenant_cache_chunks=512,
        )

    @classmethod
    def default(cls) -> "ExperimentConfig":
        """The recorded scale (EXPERIMENTS.md numbers)."""
        return cls()

    @classmethod
    def large(cls) -> "ExperimentConfig":
        """Patient scale: ~3x data per user, same cache *ratios*."""
        return cls(
            fs_bytes=384 * MIB,
            per_user_bytes=256 * MIB,
            cache_containers=64,
            silo_cache_blocks=24,
            silo_similarity_capacity=1200,
            restore_cache_containers=24,
            hybrid_cache_chunks=32768,
            tenant_cache_chunks=8192,
        )

    @classmethod
    def xlarge(cls) -> "ExperimentConfig":
        """Out-of-core scale: ≥10 GB simulated across multiple users and
        ≥20 generations. Only runnable in bounded RSS with the spill
        store (``python -m repro.memory``);
        cache *ratios* match the recorded scales so locality effects
        survive the scale-up."""
        return cls(
            fs_bytes=1024 * MIB,
            n_generations=24,
            per_user_bytes=512 * MIB,
            n_users=4,
            n_backups=22,
            cache_containers=128,
            prefetch_ahead=4,
            silo_cache_blocks=48,
            silo_similarity_capacity=2400,
            index_page_cache_pages=64,
            bloom_capacity=16_000_000,
            restore_cache_containers=48,
            hybrid_cache_chunks=65536,
        )

    @classmethod
    def by_name(cls, name: str) -> "ExperimentConfig":
        """Resolve a preset by name (see :data:`SCALE_NAMES`)."""
        if name not in SCALE_NAMES:
            raise ValueError(
                f"unknown scale {name!r}; pick one of {list(SCALE_NAMES)}"
            )
        return getattr(cls, name)()

    def with_(self, **changes) -> "ExperimentConfig":
        """Dataclass replace, fluently."""
        return replace(self, **changes)


#: The single scale-preset registry, cheapest first. Each name is an
#: :class:`ExperimentConfig` classmethod; the CLI's ``--scale`` choices
#: and :meth:`ExperimentConfig.by_name` both derive from this tuple, so
#: a new preset cannot reach one and silently miss the other.
SCALE_NAMES: Tuple[str, ...] = ("small", "default", "large", "xlarge")
