"""Workload substrate: synthetic backup streams with realistic churn.

The paper evaluates on real multi-generation file-system backups (647 GB /
20 full backups of one author's FS; 1.72 TB / 66 backups from five
students). Those datasets are private, so this package synthesizes the
property the paper's effects actually depend on: the *sharing structure*
across backup generations — which chunks repeat, where their first copies
were written, and how edits scatter new chunks through otherwise stable
streams.

* :class:`~repro.workloads.fs_model.FileSystemModel` — an evolving file
  system at chunk granularity: files with lognormal sizes, per-generation
  modify/insert/delete churn, content-defined-chunking boundary-shift
  effects.
* :mod:`~repro.workloads.generators` — the named paper workloads
  (:func:`author_fs_20_full`, :func:`group_fs_66`) plus building blocks.
* :mod:`~repro.workloads.bytegen` — byte-level twins of the generators:
  real buffers materialized from the same churn model, CDC-chunked and
  batch-fingerprinted into the identical ``BackupJob`` contract.
"""

from repro.workloads.fs_model import ChunkIdAllocator, ChurnProfile, FileSystemModel
from repro.workloads.generators import (
    BackupJob,
    author_fs_20_full,
    author_fs_20_incremental,
    group_fs_66,
    single_user_incrementals,
    single_user_stream,
)
from repro.workloads.bytegen import (
    byte_backup,
    chunk_payload,
    default_byte_chunker,
    group_fs_bytes,
    single_user_byte_stream,
)

__all__ = [
    "ChunkIdAllocator",
    "ChurnProfile",
    "FileSystemModel",
    "BackupJob",
    "author_fs_20_full",
    "author_fs_20_incremental",
    "group_fs_66",
    "single_user_incrementals",
    "single_user_stream",
    "byte_backup",
    "chunk_payload",
    "default_byte_chunker",
    "group_fs_bytes",
    "single_user_byte_stream",
]
