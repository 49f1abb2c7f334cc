"""Vectorized min/max clamping of candidate cut offsets.

Content-defined chunkers produce *candidate* boundaries (positions where
the masked rolling hash fires) and then clamp them greedily: starting
from the previous cut, take the first candidate at least ``min_size``
away, unless ``max_size`` forces a cut first. The greedy chain is
inherently sequential, but almost all of its per-cut work — finding the
first candidate ``>= cut + min_size`` — is not: one vectorized
``searchsorted`` over the whole candidate array precomputes, for every
candidate, the index of its successor-after-min. The walk then follows
precomputed pointers with O(1) Python work per chunk; only forced
max-size cuts (which land between candidates and therefore have no
precomputed pointer) fall back to a lazy ``searchsorted``.

This replaces a per-cut ``np.searchsorted`` walk. The Gear chunker and
its reference oracle in ``tests/oracle/gear_oracle.py`` both clamp with
it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["select_cuts"]


def select_cuts(
    candidates: np.ndarray, n: int, min_size: int, max_size: int
) -> np.ndarray:
    """Greedy min/max clamp over sorted candidate cut offsets.

    Args:
        candidates: sorted int64 array of candidate cut offsets in
            ``[1, n]`` (position of the byte *after* a masked-hash hit).
        n: buffer length.
        min_size: no cut closer than this to the previous cut.
        max_size: force a cut at this distance when no candidate fired.

    Returns:
        int64 boundary array starting at 0 and ending at ``n``
        (``array([0])`` for ``n == 0``), matching the scalar clamp walk
        cut-for-cut.
    """
    if n == 0:
        return np.zeros(1, dtype=np.int64)
    candidates = np.asarray(candidates, dtype=np.int64)
    m = candidates.size
    # successor-after-min pointers: nxt[j] is the index of the first
    # candidate >= candidates[j] + min_size (one vectorized pass)
    nxt = (
        np.searchsorted(candidates, candidates + min_size, side="left")
        if m
        else candidates
    )
    cuts = [0]
    last = 0
    j = int(np.searchsorted(candidates, min_size, side="left")) if m else 0
    while last < n:
        limit = last + max_size
        if j < m and candidates[j] < limit:
            cut = int(candidates[j])
            j = int(nxt[j])
        else:
            cut = min(limit, n)
            if cut < n and m:
                # forced cuts land between candidates: resolve lazily
                j = int(np.searchsorted(candidates, cut + min_size, side="left"))
        if cut >= n:
            cut = n
        cuts.append(cut)
        last = cut
    return np.asarray(cuts, dtype=np.int64)
