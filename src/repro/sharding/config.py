"""Shard-plane configuration (kept dependency-free so
:mod:`repro.experiments.config` can embed it without import cycles)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ShardConfig:
    """How the fingerprint index is split across shards.

    Attributes:
        n_shards: shard count. 1 is the degenerate case: a single
            wrapped :class:`~repro.index.full_index.DiskChunkIndex`
            driven verbatim, byte-identical to the unsharded substrate
            (the shard property suite pins this).
        vnodes: virtual nodes per shard on the consistent-hash ring.
            More vnodes flatten the key-space imbalance between shards;
            the default keeps the max/mean shard fill under ~1.15 at 8
            shards.
    """

    n_shards: int = 1
    vnodes: int = 128

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {self.vnodes}")
