"""``repro.sharding`` — the sharded, multi-tenant fingerprint plane.

ROADMAP item 1's answer to "one stream, one in-process index": a
consistent-hash–routed ensemble of :class:`~repro.index.full_index
.DiskChunkIndex` shards behind the exact single-index interface
(:class:`ShardedChunkIndex`), per-tenant fingerprint namespaces with
tenant-aware container placement (:class:`TenantNamespace` /
:class:`TenantStoreSet`), a round-robin multi-tenant ingest front-end
that folds every stream's cache misses into batched per-shard calls
(:class:`IngestFrontend`).

See DESIGN.md §18 for the routing invariants and the recovery story;
the HPDedup-style cache-allocation experiment built on this package
lives in :mod:`repro.experiments.tenants`.
"""

from repro.sharding.config import ShardConfig
from repro.sharding.frontend import (
    GlobalLRUAllocator,
    IngestFrontend,
    PrioritizedAllocator,
    TenantReport,
    TenantStream,
)
from repro.sharding.index import ShardedChunkIndex
from repro.sharding.router import ShardRouter
from repro.sharding.tenancy import TenantNamespace, TenantStoreSet

__all__ = [
    "ShardConfig",
    "ShardRouter",
    "ShardedChunkIndex",
    "TenantNamespace",
    "TenantStoreSet",
    "IngestFrontend",
    "TenantStream",
    "TenantReport",
    "GlobalLRUAllocator",
    "PrioritizedAllocator",
]
