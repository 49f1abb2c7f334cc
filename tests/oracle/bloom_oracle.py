"""Reference Bloom probe positions: the literal two-call formula.

An executable specification of
:meth:`repro.index.bloom.BloomFilter.positions`, which hashes both salts
in one in-place pass. This is the formula as first written: two
``splitmix64_array`` calls, the Kirsch–Mitzenmacher sum over ``k``
probes, and one modulo. ``tests/index/test_bloom_oracle.py`` requires
the product positions to equal these bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.chunking.fingerprint import splitmix64_array

_U64 = np.uint64


def oracle_positions(fps: np.ndarray, n_bits: int, n_hashes: int) -> np.ndarray:
    """(n, k) array of bit positions for each fingerprint."""
    fps = np.asarray(fps, dtype=np.uint64)
    with np.errstate(over="ignore"):
        h1 = splitmix64_array(fps ^ _U64(0xA5A5A5A5A5A5A5A5))
        h2 = splitmix64_array(fps ^ _U64(0x5EED5EED5EED5EED)) | _U64(1)
        ks = np.arange(n_hashes, dtype=np.uint64)
        probes = h1[:, None] + ks[None, :] * h2[:, None]
    return (probes % _U64(n_bits)).astype(np.uint64)
