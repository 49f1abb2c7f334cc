"""Byte-level workload generation: real buffers from the churn model.

The chunk-level generators emit ``(fingerprint, size)`` streams directly;
this module materializes actual *bytes* for the same evolving file
systems, so the full ingest pipeline — bytes → CDC → fingerprint →
engine → containers — can run end-to-end.

Each model chunk's payload is a pure function of its fingerprint: the
little-endian byte view of ``splitmix64(fp + k)`` for word index ``k``,
trimmed to the chunk size. That single invariant carries the whole churn
model over to byte level:

* identical fingerprints (a chunk copied between generations, files, or
  users via the shared pool) produce **identical bytes**, so all modeled
  redundancy survives;
* an edit replaces a chunk's fingerprint and therefore its bytes, while
  the following content keeps its values but *shifts position* — exactly
  the regime content-defined chunking exists for (cuts resynchronize
  after the edit instead of cascading, which a byte-level experiment
  verifies rather than assumes).

Generators materialize one generation's buffer at a time (constant
memory in the number of generations), chunk it with the vectorized
:class:`~repro.chunking.gear.GearChunker` fast path, and fingerprint via
the vectorized batch fold, yielding the same
:class:`~repro.workloads.generators.BackupJob` /
:class:`~repro.chunking.base.ChunkStream` contract the engines already
consume.
"""

from __future__ import annotations

import logging
from typing import Iterator, Optional

import numpy as np

from repro._util import MIB, check_positive, derive_seed
from repro.chunking.base import Chunker
from repro.chunking.fingerprint import splitmix64_array
from repro.chunking.gear import GearChunker
from repro.workloads.fs_model import ChunkIdAllocator, ChurnProfile, FileSystemModel
from repro.workloads.generators import BackupJob, _shared_pool

log = logging.getLogger(__name__)

__all__ = [
    "chunk_payload",
    "byte_backup",
    "default_byte_chunker",
    "single_user_byte_stream",
    "group_fs_bytes",
]


def chunk_payload(fps: np.ndarray, sizes: np.ndarray) -> bytes:
    """Materialize the byte payload of a chunk sequence (vectorized).

    Chunk ``i`` contributes the first ``sizes[i]`` bytes of the
    little-endian stream ``splitmix64(fps[i] + k), k = 0, 1, ...`` — a
    deterministic function of the fingerprint alone.
    """
    fps = np.asarray(fps, dtype=np.uint64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if fps.size == 0:
        return b""
    if sizes.size and int(sizes.min()) <= 0:
        raise ValueError("chunk sizes must be > 0")
    words = (sizes + 7) // 8
    wstarts = np.zeros(words.size + 1, dtype=np.int64)
    np.cumsum(words, out=wstarts[1:])
    total_words = int(wstarts[-1])
    # word index local to each chunk, then the per-word mixer input
    karr = np.arange(total_words, dtype=np.uint64)
    karr -= np.repeat(wstarts[:-1].astype(np.uint64), words)
    with np.errstate(over="ignore"):
        karr += np.repeat(fps, words)
    padded = splitmix64_array(karr).view(np.uint8)
    n_total = int(sizes.sum())
    if n_total == total_words * 8:
        return padded.tobytes()
    # drop each chunk's padding tail: per-chunk memcpy for realistic
    # sizes, vectorized gather when chunks are tiny
    out = np.empty(n_total, dtype=np.uint8)
    bstarts = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=bstarts[1:])
    if n_total >= 64 * sizes.size:
        for i in range(sizes.size):
            b = int(bstarts[i])
            length = int(sizes[i])
            p = 8 * int(wstarts[i])
            out[b : b + length] = padded[p : p + length]
    else:
        idx = np.arange(n_total, dtype=np.int64)
        idx += np.repeat(8 * wstarts[:-1] - bstarts[:-1], sizes)
        out[:] = padded[idx]
    return out.tobytes()


def byte_backup(fs: FileSystemModel) -> bytes:
    """The full-backup stream of ``fs`` as one byte buffer."""
    stream = fs.full_backup()
    return chunk_payload(stream.fps, stream.sizes)


def default_byte_chunker(avg_size: Optional[int] = None, seed: int = 2012) -> GearChunker:
    """The byte-level pipeline's chunker: Gear CDC at the workload's
    average chunk size (8 KiB by default)."""
    if avg_size is None:
        return GearChunker(seed=seed)
    return GearChunker(avg_size=avg_size, seed=seed)


def _chunk_job(
    generation: int, label: str, data: bytes, chunker: Chunker
) -> BackupJob:
    stream = chunker.chunk(data, fingerprints="fast")
    return BackupJob(generation=generation, label=label, stream=stream)


def single_user_byte_stream(
    n_generations: int,
    fs_bytes: int,
    seed: int = 2012,
    churn: Optional[ChurnProfile] = None,
    label: str = "user0",
    chunker: Optional[Chunker] = None,
    **fs_kwargs,
) -> Iterator[BackupJob]:
    """Byte-level twin of
    :func:`~repro.workloads.generators.single_user_stream`: each
    generation's buffer is materialized, CDC-chunked, and batch-
    fingerprinted before being yielded (one buffer live at a time)."""
    check_positive("n_generations", n_generations)
    chunker = chunker if chunker is not None else default_byte_chunker(seed=seed)
    fs = FileSystemModel(
        seed=seed, initial_bytes=fs_bytes, churn=churn, user=label, **fs_kwargs
    )
    for gen in range(n_generations):
        if gen > 0:
            fs.evolve()
        yield _chunk_job(gen, label, byte_backup(fs), chunker)


def group_fs_bytes(
    per_user_bytes: int = 32 * MIB,
    seed: int = 2012,
    n_users: int = 5,
    n_backups: int = 66,
    churn: Optional[ChurnProfile] = None,
    shared_frac: float = 0.15,
    chunker: Optional[Chunker] = None,
    **fs_kwargs,
) -> Iterator[BackupJob]:
    """Byte-level twin of :func:`~repro.workloads.generators.group_fs_66`.

    The same five evolving user file systems and round-robin backup
    schedule, but every backup is shipped as real bytes through
    CDC + batch fingerprinting. Cross-user redundancy survives because
    shared-pool fingerprints materialize to identical bytes for every
    user.
    """
    check_positive("per_user_bytes", per_user_bytes)
    check_positive("n_users", n_users)
    check_positive("n_backups", n_backups)
    log.info(
        "group_fs_bytes: %d users x %d bytes, %d backups (seed %d, shared %.0f%%)",
        n_users,
        per_user_bytes,
        n_backups,
        seed,
        shared_frac * 100,
    )
    chunker = chunker if chunker is not None else default_byte_chunker(seed=seed)
    alloc = ChunkIdAllocator(seed)
    pool = _shared_pool(derive_seed(seed, "pool"), int(per_user_bytes * 1.5))
    users = [
        FileSystemModel(
            seed=seed,
            initial_bytes=per_user_bytes,
            churn=churn,
            user=f"student{u}",
            allocator=alloc,
            shared_pool=pool,
            shared_frac=shared_frac,
            **fs_kwargs,
        )
        for u in range(n_users)
    ]
    seen = [False] * n_users
    for gen in range(n_backups):
        u = gen % n_users
        if seen[u]:
            users[u].evolve()
        seen[u] = True
        yield _chunk_job(gen, f"student{u}", byte_backup(users[u]), chunker)
