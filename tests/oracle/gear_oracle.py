"""Reference Gear chunker: the literal 64-lag uint64 hash at every byte.

An executable specification of :class:`repro.chunking.gear.GearChunker`.
The product evaluates only the low mask bits in narrow lanes; this one
evaluates the full rolling hash ``h_i = sum_{k<64} G[x_{i-k}] << k
(mod 2^64)`` one vectorized pass per lag, masks it, and clamps the
candidates with the shared :func:`select_cuts`. The suite in
``tests/chunking/test_seqcdc_equivalence.py`` requires identical cuts.
"""

from __future__ import annotations

import numpy as np

from repro.chunking.gear import GearChunker, _gear_table, _mask_bits
from repro.chunking.select import select_cuts


def _hashes_64pass(g: np.ndarray) -> np.ndarray:
    """The lag sum, one pass per lag. Prefix semantics at the head
    (position ``i < 63`` sums lags ``0..i``), matching the rolling
    definition from a zero state."""
    h = g.copy()
    with np.errstate(over="ignore"):
        for k in range(1, min(64, g.size)):
            h[k:] += g[:-k] << np.uint64(k)
    return h


def rolling_hashes(chunker: GearChunker, data: bytes) -> np.ndarray:
    """The full 64-bit Gear hash at every byte position of ``data``."""
    table = _gear_table(chunker.seed)
    return _hashes_64pass(table[np.frombuffer(data, dtype=np.uint8)])


def cut_exact(chunker: GearChunker, data: bytes) -> np.ndarray:
    """The cuts ``chunker`` must produce on ``data``."""
    mask = np.uint64((1 << _mask_bits(chunker.avg_size)) - 1)
    # candidate cut *after* position i  ->  boundary offset i + 1
    candidates = np.flatnonzero((rolling_hashes(chunker, data) & mask) == 0) + 1
    return select_cuts(candidates, len(data), chunker.min_size, chunker.max_size)
