"""Chunk fingerprints.

Real systems use SHA-1; for simulation we use 64-bit fingerprints:

* byte-level path: BLAKE2b-64 of the chunk contents (collision odds at
  simulation scales are negligible, ~n^2 / 2^65);
* chunk-level path: :func:`splitmix64` of a globally unique counter —
  splitmix64 is a bijection on 64-bit ints, so distinct counters can
  never collide while still looking uniformly random to the index
  structures (bloom filters, hash tables) that consume them;
* batch byte-level path: :func:`fingerprint_segments_fast` — a
  vectorized position-mixed word fold (splitmix64 family). The per-byte
  Python cost of BLAKE2b slicing dominates high-throughput ingest, so
  the byte-level workload path uses this fold instead: every 8-byte
  word is mixed with its in-segment position, XOR-folded per segment
  with one ``np.bitwise_xor.reduceat``, and finalized with the segment
  length. Not BLAKE2b-compatible — a parallel fingerprint *family*
  (collision odds are the same birthday bound either way).
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

_U64 = np.uint64
_MASK64 = (1 << 64) - 1


def fingerprint64(data: bytes) -> int:
    """64-bit BLAKE2b fingerprint of ``data``."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def fingerprint_segments(data: bytes, boundaries: Sequence[int]) -> np.ndarray:
    """Fingerprint each ``data[boundaries[i]:boundaries[i+1]]`` slice.

    Args:
        data: the raw byte stream.
        boundaries: monotonically increasing cut offsets, beginning with 0
            and ending with ``len(data)`` (as produced by chunkers).

    Returns:
        uint64 array of per-chunk fingerprints.
    """
    view = memoryview(data)
    n = len(boundaries) - 1
    out = np.empty(n, dtype=np.uint64)
    for i in range(n):
        out[i] = fingerprint64(bytes(view[boundaries[i] : boundaries[i + 1]]))
    return out


def splitmix64(x: int) -> int:
    """The splitmix64 finalizer: a fast 64-bit bijective mixer."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`splitmix64` over a uint64 array."""
    x = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = x + _U64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> _U64(27))) * _U64(0x94D049BB133111EB)
        return x ^ (x >> _U64(31))


def fingerprint64_fast(data: bytes) -> int:
    """Scalar reference for the word-fold fingerprint family.

    Zero-pad ``data`` to 8-byte little-endian words, mix each word with
    its word index, XOR-fold, finalize with the byte length. The batch
    implementation (:func:`fingerprint_segments_fast`) must match this
    bit-for-bit.
    """
    length = len(data)
    n_words = (length + 7) // 8
    padded = data + b"\x00" * (8 * n_words - length)
    acc = 0
    for k in range(n_words):
        word = int.from_bytes(padded[8 * k : 8 * k + 8], "little")
        acc ^= splitmix64(word ^ splitmix64(k + 1))
    return splitmix64(acc ^ splitmix64(length))


#: default batch granularity for the vectorized fold: bounds temporaries
#: independent of the input size
_FAST_BATCH_BYTES = 32 * 1024 * 1024


def fingerprint_segments_fast(
    data: bytes,
    boundaries: "Sequence[int] | np.ndarray",
    *,
    batch_bytes: int = _FAST_BATCH_BYTES,
) -> np.ndarray:
    """Vectorized word-fold fingerprints for every segment at once.

    Same contract as :func:`fingerprint_segments` (strictly increasing
    boundaries from 0 to ``len(data)``) but a different fingerprint
    *family*: bit-identical to :func:`fingerprint64_fast` per segment,
    not to BLAKE2b. Segments are processed in batches whose padded size
    stays under ``batch_bytes``, so peak temporaries are bounded
    regardless of input size.
    """
    bounds = np.asarray(boundaries, dtype=np.int64)
    n_seg = bounds.size - 1
    out = np.empty(max(n_seg, 0), dtype=np.uint64)
    if n_seg <= 0:
        return out
    buf = np.frombuffer(data, dtype=np.uint8)
    sizes = np.diff(bounds)
    if sizes.size and int(sizes.min()) <= 0:
        raise ValueError("boundaries must be strictly increasing")
    lo = 0
    while lo < n_seg:
        # widest batch of whole segments whose span fits batch_bytes
        hi = int(np.searchsorted(bounds, bounds[lo] + batch_bytes, side="left"))
        hi = max(min(hi, n_seg), lo + 1)
        out[lo:hi] = _fold_batch(buf, bounds[lo : hi + 1])
        lo = hi
    return out


#: ``splitmix64(k + 1)`` for in-segment word index ``k``: the per-word key
#: of the fold, grown on demand to the longest segment seen. A pure
#: function of ``k``, so sharing it across callers cannot change a result
_WORD_KEYS = np.zeros(0, dtype=np.uint64)


def _word_keys(n_words: int) -> np.ndarray:
    """The word-key table, at least ``n_words`` long."""
    global _WORD_KEYS
    keys = _WORD_KEYS
    if keys.size < n_words:
        size = max(n_words, 2 * keys.size)
        keys = splitmix64_array(np.arange(1, size + 1, dtype=np.uint64))
        # rebind, never mutate: a caller holding the old table still
        # reads a complete one
        _WORD_KEYS = keys
    return keys


def _fold_batch(buf: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """One vectorized fold over the segments delimited by ``bounds``."""
    sizes = np.diff(bounds)
    words = (sizes + 7) // 8
    # exclusive word-start offsets per segment, plus total
    wstarts = np.zeros(words.size + 1, dtype=np.int64)
    np.cumsum(words, out=wstarts[1:])
    total_words = int(wstarts[-1])
    padded = np.zeros(total_words * 8, dtype=np.uint8)
    # move each segment's bytes to its word-aligned padded position: a
    # per-segment memcpy loop for realistic chunk sizes (loop overhead is
    # per *chunk*, copy cost is C), a fully vectorized byte scatter when
    # segments are so tiny that per-segment Python overhead would win
    n_span = int(bounds[-1] - bounds[0])
    pstarts = 8 * wstarts[:-1]
    if n_span >= 64 * sizes.size:
        for s, length, p in zip(
            bounds[:-1].tolist(), sizes.tolist(), pstarts.tolist()
        ):
            padded[p : p + length] = buf[s : s + length]
    else:
        src = np.arange(n_span, dtype=np.int64)
        shift = np.repeat(pstarts - (bounds[:-1] - bounds[0]), sizes)
        padded[src + shift] = buf[bounds[0] : bounds[-1]]
        del src, shift
    wview = padded.view("<u8")
    # in-segment word index for every word
    karr = np.arange(total_words, dtype=np.int64) - np.repeat(wstarts[:-1], words)
    mixed = splitmix64_array(wview ^ _word_keys(int(words.max()))[karr])
    folded = np.bitwise_xor.reduceat(mixed, wstarts[:-1])
    return splitmix64_array(folded ^ splitmix64_array(sizes))

