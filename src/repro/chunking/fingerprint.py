"""Chunk fingerprints.

Real systems use SHA-1; for simulation we use 64-bit fingerprints:

* byte-level path: BLAKE2b-64 of the chunk contents (collision odds at
  simulation scales are negligible, ~n^2 / 2^65);
* chunk-level path: :func:`splitmix64` of a globally unique counter —
  splitmix64 is a bijection on 64-bit ints, so distinct counters can
  never collide while still looking uniformly random to the index
  structures (bloom filters, hash tables) that consume them;
* batch byte-level path: :func:`fingerprint_segments_fast`, a word fold
  in the splitmix64 family. Each chunk is zero-padded to 8-byte
  little-endian words; word ``k`` is XORed with the key
  ``splitmix64(k + 1)`` and mixed with splitmix64; the mixed words are
  XOR-folded and the fold is finalized with the chunk length. Not
  BLAKE2b-compatible: a parallel fingerprint *family* with the same
  birthday bound, used because a C call per chunk dominates
  high-throughput ingest.

The batch fold works in place. One copy loop lays every chunk's bytes
at its word-aligned offset in a zeroed buffer and the chunk's word keys
beside them in a second buffer; the words are XORed with their keys and
mixed in place, the key buffer serving as the mixer's scratch, and one
``np.bitwise_xor.reduceat`` folds each chunk. Batches are kept small
enough for both buffers to stay in cache. The scalar reference the fold
must match bit for bit is ``tests/oracle/fold_oracle.py``.
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


def _splitmix64_inplace(x: np.ndarray, scratch: np.ndarray) -> None:
    """:func:`splitmix64_array` over ``x`` in place; ``scratch`` is a
    uint64 array of the same size whose contents it overwrites."""
    with np.errstate(over="ignore"):
        x += _U64(0x9E3779B97F4A7C15)
        for shift, mul in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            x ^= np.right_shift(x, _U64(shift), out=scratch)
            x *= _U64(mul)
        x ^= np.right_shift(x, _U64(31), out=scratch)


#: default batch granularity for the vectorized fold: bounds temporaries
#: independent of the input size. Measured on a 2 MB buffer of ~9 KiB
#: chunks (x86_64 Xeon, 2 vCPU, numpy 2.4): 256 KiB-1 MiB batches fold
#: in 1.3-1.6 ms, 64 KiB batches in 2.3 ms (per-batch overhead) and one
#: 32 MiB batch in 3.4 ms (out of cache)
_FAST_BATCH_BYTES = 512 * 1024


def fingerprint_segments_fast(
    data: bytes,
    boundaries: "Sequence[int] | np.ndarray",
    *,
    batch_bytes: int = _FAST_BATCH_BYTES,
) -> np.ndarray:
    """Vectorized word-fold fingerprints for every segment at once.

    Same contract as :func:`fingerprint_segments` (strictly increasing
    boundaries from 0 to ``len(data)``) but a different fingerprint
    *family*: bit-identical to the scalar reference per segment, not to
    BLAKE2b. Segments are processed in batches whose padded size stays
    under ``batch_bytes``, so peak temporaries are bounded regardless of
    input size.
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
    """One fold over the segments delimited by ``bounds``, in place."""
    sizes = np.diff(bounds)
    words = (sizes + 7) // 8
    # exclusive word-start offsets per segment, plus total
    wstarts = np.zeros(words.size + 1, dtype=np.int64)
    np.cumsum(words, out=wstarts[1:])
    total_words = int(wstarts[-1])
    wkeys = _word_keys(int(words.max()))
    padded = np.zeros(total_words * 8, dtype=np.uint8)
    keys = np.empty(total_words, dtype=np.uint64)
    # lay each segment's bytes at its word-aligned position and its
    # words' keys beside them: a per-segment memcpy loop for realistic
    # chunk sizes (loop overhead is per *chunk*, copy cost is C), a
    # vectorized scatter when segments are so tiny that per-segment
    # Python overhead would win
    n_span = int(bounds[-1] - bounds[0])
    if n_span >= 64 * sizes.size:
        for s, length, w, nw in zip(
            bounds[:-1].tolist(), sizes.tolist(), wstarts[:-1].tolist(), words.tolist()
        ):
            padded[8 * w : 8 * w + length] = buf[s : s + length]
            keys[w : w + nw] = wkeys[:nw]
    else:
        shift = np.repeat(8 * wstarts[:-1] - (bounds[:-1] - bounds[0]), sizes)
        padded[np.arange(n_span) + shift] = buf[bounds[0] : bounds[-1]]
        keys[:] = wkeys[np.arange(total_words) - np.repeat(wstarts[:-1], words)]
    x = padded.view("<u8")
    x ^= keys
    _splitmix64_inplace(x, scratch=keys)
    folded = np.bitwise_xor.reduceat(x, wstarts[:-1])
    return splitmix64_array(folded ^ splitmix64_array(sizes))
