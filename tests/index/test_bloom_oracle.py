"""Bloom probe positions against the literal two-call formula.

``BloomFilter.positions`` hashes both salts of a batch in one in-place
splitmix pass; ``tests/oracle/bloom_oracle.py`` is the formula as first
written. The positions must be identical, with the same dtype, for every
probe count from 1 to 10 on filters whose width is not a multiple of 64,
and inserting through :meth:`~BloomFilter.add_positions` must set the
same words as :meth:`~BloomFilter.add_many`. Overflowing uint64 arithmetic
is the point of the hash, so none of it may warn.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.index.bloom import BloomFilter

from tests.oracle.bloom_oracle import oracle_positions


def _filter_with(n_hashes: int) -> BloomFilter:
    """A small filter with ``n_hashes`` probes and a ragged bit width."""
    for capacity in range(50, 5000, 37):
        bloom = BloomFilter(capacity, 2.0 ** -n_hashes)
        if bloom.n_hashes == n_hashes and bloom.n_bits % 64:
            return bloom
    raise AssertionError(f"no test filter with {n_hashes} probes")


FILTERS = {k: _filter_with(k) for k in range(1, 11)}
fps_st = st.lists(st.integers(0, 2**64 - 1), max_size=60)


@pytest.mark.parametrize("n_hashes", sorted(FILTERS))
@settings(max_examples=40, deadline=None)
@given(raw=fps_st)
def test_positions_match_oracle(n_hashes, raw):
    bloom = FILTERS[n_hashes]
    fps = np.asarray(raw, dtype=np.uint64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = bloom.positions(fps)
    want = oracle_positions(fps, bloom.n_bits, bloom.n_hashes)
    assert got.dtype == want.dtype
    assert got.shape == want.shape == (len(raw), n_hashes)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n_hashes", (1, 4, 7, 10))
@settings(max_examples=40, deadline=None)
@given(raw=fps_st, picks=st.lists(st.booleans(), max_size=60))
def test_add_positions_matches_add_many(n_hashes, raw, picks):
    """Inserting a subset through its precomputed rows (DeFrag's place
    phase) leaves the same words and count as hashing it again."""
    template = FILTERS[n_hashes]
    fps = np.asarray(raw, dtype=np.uint64)
    mask = np.zeros(len(raw), dtype=bool)
    mask[: len(picks)] = picks[: len(raw)]
    by_fps = BloomFilter(template.capacity, template.fp_rate)
    by_pos = BloomFilter(template.capacity, template.fp_rate)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        by_fps.add_many(fps[mask])
        pos = by_pos.positions(fps)
        by_pos.add_positions(pos[np.flatnonzero(mask).tolist()])
        np.testing.assert_array_equal(by_pos._words, by_fps._words)
        assert by_pos.n_added == by_fps.n_added == int(mask.sum())
        np.testing.assert_array_equal(
            by_pos.contains_positions(pos), by_fps.contains_many(fps)
        )


def test_extreme_fingerprints_do_not_warn():
    fps = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bloom in FILTERS.values():
            bloom.positions(fps)
            bloom.contains_many(fps)
