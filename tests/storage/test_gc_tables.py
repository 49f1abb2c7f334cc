"""The collector's lookup tables against their plain definitions.

``_References`` orders the retained references by ``(fingerprint,
container)`` with a fingerprint argsort and a stable sort of an exact
integer key, falling back to ``np.lexsort`` when that key could overflow;
``_locate_ids`` finds container ids through a dense table, falling back
to a binary search when the ids are too sparse. Both fallbacks are
exercised here with container ids far apart, which no workload produces.
"""

import numpy as np
import pytest

from repro.storage.gc import _References, _locate, _locate_ids
from repro.storage.recipe import BackupRecipe


def recipes(rng, n_recipes, spread):
    fps = rng.integers(0, 1 << 64, 12, dtype=np.uint64)
    cids = np.array([-1, 0, 3, 7, spread], dtype=np.int64)
    out = []
    for g in range(n_recipes):
        n = int(rng.integers(0, 30))
        out.append(
            BackupRecipe(
                generation=g,
                fingerprints=rng.choice(fps, n),
                sizes=rng.integers(1, 5000, n).astype(np.uint32),
                containers=rng.choice(cids, n),
            )
        )
    return out


def lexsort_tables(retained):
    """The reference table: one ``np.lexsort`` by (fingerprint, container)."""
    fps = np.concatenate([r.fingerprints for r in retained] or [[]]).astype(np.uint64)
    cids = np.concatenate([r.containers for r in retained] or [[]]).astype(np.int64)
    order = np.lexsort((cids, fps))
    fps, cids = fps[order], cids[order]
    new_fp = np.ones(len(fps), dtype=bool)
    new_fp[1:] = fps[1:] != fps[:-1]
    new_pair = new_fp.copy()
    new_pair[1:] |= cids[1:] != cids[:-1]
    ends_pair = np.ones(len(fps), dtype=bool)
    ends_pair[:-1] = new_pair[1:]
    pair = np.empty(len(fps), dtype=np.int64)
    pair[order] = np.cumsum(new_pair) - 1
    return {
        "fps": fps[new_fp],
        "fp": (np.cumsum(new_fp) - 1)[new_pair],
        "cid": cids[new_pair],
        "first": order[new_pair],
        "last": order[ends_pair],
        "pair": pair,
    }


@pytest.mark.parametrize("spread", [9, 1 << 61])
@pytest.mark.parametrize("seed", range(20))
def test_references_match_a_lexsort(seed, spread):
    retained = recipes(np.random.default_rng(seed), seed % 5, spread)
    refs = _References(retained)
    for name, want in lexsort_tables(retained).items():
        assert np.array_equal(getattr(refs, name), want), name


@pytest.mark.parametrize("spread", [9, 1 << 40])
@pytest.mark.parametrize("seed", range(10))
def test_locate_ids_matches_the_binary_search(seed, spread):
    rng = np.random.default_rng(seed)
    universe = np.array([-1, 0, 2, 3, 5, 8, spread], dtype=np.int64)
    sorted_ids = np.unique(rng.choice(universe, int(rng.integers(0, 6))))
    ids = rng.choice(universe, int(rng.integers(0, 40)))
    pos, found = _locate_ids(ids, sorted_ids)
    want_pos, want_found = _locate(ids, sorted_ids)
    assert np.array_equal(found, want_found)
    assert np.array_equal(pos[found], want_pos[want_found])
