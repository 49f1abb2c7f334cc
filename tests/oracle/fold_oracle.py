"""Reference word fold: one segment at a time, in Python integers.

An executable specification of
:func:`repro.chunking.fingerprint.fingerprint_segments_fast`: zero-pad
the segment to 8-byte little-endian words, mix each word with its word
index, XOR-fold, finalize with the byte length. The batch fold must
match :func:`fingerprint64_fast` bit-for-bit on every segment
(``tests/chunking/test_fingerprint_fast.py``,
``tests/chunking/test_byte_layer_blocks.py``).
"""

from __future__ import annotations

from repro.chunking.fingerprint import splitmix64


def fingerprint64_fast(data: bytes) -> int:
    """The word-fold fingerprint of one segment."""
    length = len(data)
    n_words = (length + 7) // 8
    padded = data + b"\x00" * (8 * n_words - length)
    acc = 0
    for k in range(n_words):
        word = int.from_bytes(padded[8 * k : 8 * k + 8], "little")
        acc ^= splitmix64(word ^ splitmix64(k + 1))
    return splitmix64(acc ^ splitmix64(length))
