"""Deterministic fingerprint sampling for sparse-indexing-style lookups."""

from __future__ import annotations

import numpy as np

from repro._util import check_positive

_U64 = np.uint64


def sample_fingerprints(fps: np.ndarray, rate: int) -> np.ndarray:
    """Deterministically sample ~1/``rate`` of the fingerprints.

    Selection is by value (``fp % rate == 0``), so the same chunk is
    sampled identically wherever it appears — the property sparse
    indexing relies on.
    """
    check_positive("rate", rate)
    fps = np.asarray(fps, dtype=np.uint64)
    return fps[fps % _U64(int(rate)) == 0]

