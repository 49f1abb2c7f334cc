"""Chunking substrate: breaking byte streams into content-defined chunks.

Deduplication operates on *chunks*: variable-size pieces cut at
content-defined boundaries so that local edits only disturb nearby chunk
boundaries. This package provides:

* :class:`~repro.chunking.base.Chunk` / :class:`~repro.chunking.base.ChunkStream`
  — the chunk representation used everywhere (structure-of-arrays over
  numpy for scale).
* :class:`~repro.chunking.fixed.FixedChunker` — fixed-size baseline.
* :class:`~repro.chunking.gear.GearChunker` — Gear-hash content-defined
  chunking, numpy-vectorized (the production path for byte-level input).
* :mod:`~repro.chunking.fingerprint` — 64-bit chunk fingerprints and the
  splitmix64 mixer used for synthetic chunk ids.

Large-scale experiments run at *chunk level* (streams of fingerprints
emitted directly by the workload generator); byte-level chunking is the
ingest path for real data and for validating the chunk-level model.
"""

from repro.chunking.base import Chunk, Chunker, ChunkStream
from repro.chunking.fixed import FixedChunker
from repro.chunking.gear import ChunkScanStats, GearChunker
from repro.chunking.select import select_cuts
from repro.chunking.fingerprint import (
    fingerprint64,
    fingerprint_segments,
    fingerprint_segments_fast,
    splitmix64,
    splitmix64_array,
)

__all__ = [
    "Chunk",
    "Chunker",
    "ChunkScanStats",
    "ChunkStream",
    "FixedChunker",
    "GearChunker",
    "select_cuts",
    "fingerprint64",
    "fingerprint_segments",
    "fingerprint_segments_fast",
    "splitmix64",
    "splitmix64_array",
]
