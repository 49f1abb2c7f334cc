"""The sequence-attributed prefetch cache against its eager-map oracle.

``FingerprintPrefetchCache`` answers lookups from per-unit upsert
sequence numbers; ``tests/oracle/prefetch_cache_oracle.py`` keeps the
``fp -> uid`` map up to date on every insert and eviction. Each example
drives both through one random operation sequence — inserts (single and
runs, re-prefetches of cached and of evicted units), lookups (scalar and
batch), recency touches, ``has_unit`` and ``clear`` — over capacities
1–8, with fingerprints shared across units and repeated within one.
After every operation the answers, ``stats``, ``len`` and the
``on_evict`` call sequences must be identical.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chunking.fingerprint import splitmix64_array
from repro.index.cache import FingerprintPrefetchCache

from tests.oracle.prefetch_cache_oracle import OraclePrefetchCache

#: fingerprint pool: a few 64-bit values, so units share them often
FPS = splitmix64_array(np.arange(12, dtype=np.uint64)).tolist()
N_UNITS = 10

fp_ix = st.integers(0, len(FPS) - 1)
uid_st = st.integers(0, N_UNITS - 1)

ops_st = st.lists(
    st.one_of(
        st.tuples(st.just("insert_unit"), uid_st),
        st.tuples(st.just("insert_units"), st.lists(uid_st, min_size=1, max_size=5)),
        st.tuples(st.just("lookup"), fp_ix),
        st.tuples(st.just("lookup_many"), st.lists(fp_ix, max_size=8)),
        st.tuples(st.just("touch"), fp_ix),
        st.tuples(st.just("touch_unit"), fp_ix),
        st.tuples(st.just("has_unit"), uid_st),
        st.tuples(st.just("contains"), fp_ix),
        st.tuples(st.just("clear"), st.none()),
    ),
    max_size=40,
)
# each unit's fixed contents: repeats within a unit allowed, empty too
contents_st = st.lists(
    st.lists(fp_ix, max_size=6), min_size=N_UNITS, max_size=N_UNITS
)


def apply(cache, op, arg, contents):
    """Run one operation; return its observable answer."""
    if op == "insert_unit":
        return cache.insert_unit(arg, contents[arg])
    if op == "insert_units":
        return cache.insert_units([(u, contents[u]) for u in arg])
    if op == "lookup":
        return cache.lookup(FPS[arg])
    if op == "lookup_many":
        keys = [FPS[i] for i in arg]
        as_list = cache.lookup_many(keys).tolist()
        assert cache.lookup_many(np.asarray(keys, dtype=np.uint64)).tolist() == as_list
        return as_list
    if op in ("touch", "touch_unit"):
        # batch walks refresh only units a lookup_many answered
        uid = int(cache.lookup_many([FPS[arg]])[0])
        if uid >= 0:
            cache.touch(uid) if op == "touch" else cache.touch_unit(uid)
        return uid
    if op == "has_unit":
        return cache.has_unit(arg)
    if op == "contains":
        return FPS[arg] in cache
    assert op == "clear"
    return cache.clear()


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(1, 8), contents=contents_st, ops=ops_st)
def test_matches_oracle(capacity, contents, ops):
    units = [np.asarray([FPS[i] for i in c], dtype=np.uint64) for c in contents]
    cache = FingerprintPrefetchCache(capacity)
    oracle = OraclePrefetchCache(capacity)
    evicted, oracle_evicted = [], []
    cache.on_evict = lambda uid, n: evicted.append((uid, n))
    oracle.on_evict = lambda uid, n: oracle_evicted.append((uid, n))
    for op, arg in ops:
        got = apply(cache, op, arg, units)
        want = apply(oracle, op, arg, units)
        assert got == want, (op, arg)
        assert cache.stats == oracle.stats, (op, arg)
        assert len(cache) == len(oracle)
        assert evicted == oracle_evicted
    # every fingerprint answers the same at the end, too
    assert cache.lookup_many(FPS).tolist() == oracle.lookup_many(FPS).tolist()


@settings(max_examples=100, deadline=None)
@given(capacity=st.integers(1, 4), contents=contents_st, order=st.lists(uid_st, max_size=30))
def test_insert_units_equals_insert_unit_sequence(capacity, contents, order):
    """A run insert is the per-unit inserts with evictions deferred."""
    units = [np.asarray([FPS[i] for i in c], dtype=np.uint64) for c in contents]
    run = FingerprintPrefetchCache(capacity)
    run.insert_units([(u, units[u]) for u in order])
    oracle = OraclePrefetchCache(capacity)
    oracle.insert_units([(u, units[u]) for u in order])
    assert run.lookup_many(FPS).tolist() == oracle.lookup_many(FPS).tolist()
    assert run.stats == oracle.stats


def test_reused_uid_with_different_contents_raises():
    cache = FingerprintPrefetchCache(2)
    cache.insert_unit(1, np.array([10, 11], dtype=np.uint64))
    cache.insert_unit(1, [10, 11])  # same contents: a re-prefetch
    with pytest.raises(ValueError):
        cache.insert_unit(1, np.array([10, 12], dtype=np.uint64))
    cache.insert_unit(2, [20])
    cache.insert_unit(3, [30])  # evicts unit 1
    with pytest.raises(ValueError):
        cache.insert_units([(1, np.array([10], dtype=np.uint64))])


def test_negative_uid_rejected():
    with pytest.raises(ValueError):
        FingerprintPrefetchCache(2).insert_unit(-1, [1])


def test_cache_pins_no_unit_array():
    """The registry keeps ints only: neither a cached nor an evicted
    unit's array stays alive through the cache."""
    cache = FingerprintPrefetchCache(1)
    arrays = [np.arange(i, i + 50, dtype=np.uint64) for i in range(0, 200, 50)]
    refs = [weakref.ref(a) for a in arrays]
    cache.insert_units([(u, a) for u, a in enumerate(arrays)])
    cache.insert_unit(0, np.arange(0, 50, dtype=np.uint64))  # re-prefetch
    del arrays
    gc.collect()
    assert all(r() is None for r in refs)
    assert cache.lookup(75) is None and cache.lookup(25) == 0
