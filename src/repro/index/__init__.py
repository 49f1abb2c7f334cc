"""Indexing substrate: everything RAM-vs-disk about finding duplicates.

Deduplication's *disk bottleneck* (paper §I) is the chunk index: it is far
too large for RAM, so engines layer RAM structures in front of it:

* :class:`~repro.index.bloom.BloomFilter` — DDFS's "summary vector":
  screens out brand-new chunks without any disk access.
* :class:`~repro.index.full_index.DiskChunkIndex` — the authoritative
  on-disk fingerprint → location map, with bucket-paging cost accounting.
* :class:`~repro.index.cache.FingerprintPrefetchCache` — DDFS's
  "locality-preserved caching": container (or block) metadata fetched on
  an index hit, serving nearby duplicates from RAM afterwards.
* :class:`~repro.index.similarity.SimilarityIndex` — SiLo's RAM-resident
  map from segment representative fingerprints to blocks.
* :mod:`~repro.index.sampling` — deterministic by-value fingerprint
  sampling (SparseIndex's hooks).
"""

from repro.index.bloom import BloomFilter
from repro.index.full_index import ChunkLocation, DiskChunkIndex, IndexStats
from repro.index.cache import FingerprintPrefetchCache, LRUCache
from repro.index.similarity import SimilarityIndex
from repro.index.sampling import sample_fingerprints

__all__ = [
    "BloomFilter",
    "ChunkLocation",
    "DiskChunkIndex",
    "IndexStats",
    "FingerprintPrefetchCache",
    "LRUCache",
    "SimilarityIndex",
    "sample_fingerprints",
]
