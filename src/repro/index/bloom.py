"""Bloom filter ("summary vector" in DDFS).

A RAM bit array that answers "definitely new" / "possibly seen" for chunk
fingerprints, letting the engine skip the on-disk index for the common
new-chunk case. Implemented over a numpy uint64 word array with
double-hashing (Kirsch–Mitzenmacher): the ``i``-th of k probe positions
is ``(h1 + i * h2) mod n_bits``, where ``h1`` and ``h2`` are splitmix64
mixes of the fingerprint under two salts. One in-place splitmix pass
hashes both salts of a whole batch at once. All operations come in scalar
and vectorized (array) forms; :meth:`BloomFilter.positions` and
:meth:`BloomFilter.add_positions` let a caller that already probed a
batch insert part of it without hashing again.
"""

from __future__ import annotations

import math

import numpy as np

from repro._util import check_fraction, check_positive

_U64 = np.uint64
# double-hashing salts, and the splitmix64 constants
_SALTS = np.array([[0xA5A5A5A5A5A5A5A5], [0x5EED5EED5EED5EED]], dtype=np.uint64)
_GAMMA = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)


class BloomFilter:
    """Bloom filter sized for ``capacity`` entries at ``fp_rate``.

    Attributes:
        n_bits: bit-array width.
        n_hashes: probes per key.
        n_added: keys inserted so far.
    """

    def __init__(self, capacity: int, fp_rate: float = 0.01) -> None:
        check_positive("capacity", capacity)
        check_fraction("fp_rate", fp_rate)
        if fp_rate in (0.0, 1.0):
            raise ValueError("fp_rate must be strictly inside (0, 1)")
        self.capacity = int(capacity)
        self.fp_rate = float(fp_rate)
        ln2 = math.log(2.0)
        n_bits = max(64, int(math.ceil(-capacity * math.log(fp_rate) / (ln2 * ln2))))
        self.n_bits = n_bits
        self.n_hashes = max(1, int(round((n_bits / capacity) * ln2)))
        self._ks = np.arange(self.n_hashes, dtype=np.uint64)
        self._n_bits = _U64(n_bits)
        self._words = np.zeros((n_bits + 63) // 64, dtype=np.uint64)
        self.n_added = 0

    # -- hashing --------------------------------------------------------

    def positions(self, fps: np.ndarray) -> np.ndarray:
        """(n, k) uint64 array of bit positions for each fingerprint."""
        fps = np.asarray(fps, dtype=np.uint64)
        # both salted copies in one (2, n) array, mixed in place (uint64
        # array arithmetic wraps silently)
        x = fps[None, :] ^ _SALTS
        x += _GAMMA
        x ^= x >> _U64(30)
        x *= _MIX1
        x ^= x >> _U64(27)
        x *= _MIX2
        x ^= x >> _U64(31)
        h1, h2 = x
        h2 |= _U64(1)
        probes = h2[:, None] * self._ks
        probes += h1[:, None]
        probes %= self._n_bits
        return probes

    # -- scalar API -----------------------------------------------------

    def add(self, fp: int) -> None:
        """Insert one fingerprint."""
        self.add_many(np.asarray([fp], dtype=np.uint64))

    def __contains__(self, fp: int) -> bool:
        return bool(self.contains_many(np.asarray([fp], dtype=np.uint64))[0])

    # -- vectorized API ---------------------------------------------------

    def add_many(self, fps: np.ndarray) -> None:
        """Insert an array of fingerprints."""
        fps = np.asarray(fps, dtype=np.uint64)
        if fps.size:
            self.add_positions(self.positions(fps))

    def add_positions(self, pos: np.ndarray) -> None:
        """Insert the fingerprints whose :meth:`positions` rows are
        ``pos`` — the same bits and count as ``add_many`` on them."""
        if not len(pos):
            return
        flat = pos.ravel()
        np.bitwise_or.at(
            self._words, (flat >> _U64(6)).astype(np.int64), _U64(1) << (flat & _U64(63))
        )
        self.n_added += len(pos)

    def contains_many(self, fps: np.ndarray) -> np.ndarray:
        """Boolean membership array for ``fps``."""
        fps = np.asarray(fps, dtype=np.uint64)
        if fps.size == 0:
            return np.zeros(0, dtype=bool)
        return self.contains_positions(self.positions(fps))

    def contains_positions(self, pos: np.ndarray) -> np.ndarray:
        """Boolean membership of the fingerprints whose :meth:`positions`
        rows are ``pos``."""
        words = (pos >> _U64(6)).astype(np.int64)
        bits = _U64(1) << (pos & _U64(63))
        return ((self._words[words] & bits) != 0).all(axis=1)

    # -- segment batching -------------------------------------------------

    def begin_batch(self, fps: np.ndarray) -> "BloomBatch":
        """Precompute the probe positions of one segment's fingerprints.

        The returned :class:`BloomBatch` answers per-chunk membership and
        performs per-chunk inserts against *this* filter without re-hashing,
        so an engine's batch ingest path pays the double-hashing cost once
        per segment instead of once per chunk. Results are bit-identical to
        the scalar ``fp in bloom`` / ``add(fp)`` sequence, including the
        case where an ``add`` earlier in the segment flips a later chunk's
        membership (a same-segment-induced false positive).
        """
        return BloomBatch(self, fps)

    # -- introspection ----------------------------------------------------

    @property
    def fill_ratio(self) -> float:
        """Fraction of bits set."""
        set_bits = int(np.unpackbits(self._words.view(np.uint8)).sum())
        return set_bits / self.n_bits

    def expected_fp_rate(self) -> float:
        """Theoretical false-positive rate at the current load."""
        return (1.0 - math.exp(-self.n_hashes * self.n_added / self.n_bits)) ** self.n_hashes

    @property
    def ram_bytes(self) -> int:
        """RAM footprint of the bit array."""
        return int(self._words.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BloomFilter(capacity={self.capacity}, bits={self.n_bits}, "
            f"k={self.n_hashes}, added={self.n_added})"
        )


class BloomBatch:
    """One segment's fingerprints, hashed once, probed per chunk.

    ``contains(i)`` / ``add(i)`` refer to the i-th fingerprint of the
    array handed to :meth:`BloomFilter.begin_batch`. Membership uses the
    snapshot taken at construction (bits never clear, so a set bit stays
    authoritative) plus the batch's own pending inserts — the only way a
    snapshot-absent chunk's answer can change mid-segment. Inserts are
    staged in a per-word pending dict and folded into the filter's word
    array by :meth:`flush` in one vector OR; the caller must flush at the
    end of the segment walk.
    """

    __slots__ = (
        "_bloom",
        "_rows",
        "_bits",
        "_m0",
        "_hit",
        "_pos",
        "_hit_arr",
        "_pending",
        "_staged",
        "_added_pos",
    )

    def __init__(self, bloom: BloomFilter, fps: np.ndarray) -> None:
        fps = np.asarray(fps, dtype=np.uint64)
        self._bloom = bloom
        self._pending: dict = {}
        # inserts staged in bulk by try_stage, folded lazily (contains)
        # or at flush; _added_pos tracks every insert's probe positions
        # for try_stage's coverage check
        self._staged: list = []
        self._added_pos: list = []
        if fps.size == 0:
            self._rows: list = []
            self._bits: list = []
            self._m0: list = []
            self._hit: list = []
            self._pos = np.zeros((0, 0), dtype=np.uint64)
            self._hit_arr = np.zeros((0, 0), dtype=bool)
            return
        pos = bloom.positions(fps)
        rows = (pos >> _U64(6)).astype(np.int64)
        bits = _U64(1) << (pos & _U64(63))
        hit = (bloom._words[rows] & bits) != 0
        self._m0 = hit.all(axis=1).tolist()
        self._rows = rows.tolist()
        self._bits = bits.tolist()
        # per-probe snapshot answers: bits never clear, so a snapshot-set
        # probe stays set and only snapshot-unset probes can be flipped
        # (by a pending insert)
        self._hit = hit.tolist()
        self._pos = pos
        self._hit_arr = hit

    def negatives(self) -> np.ndarray:
        """Boolean mask of the chunks whose *snapshot* membership is
        negative (the only chunks a pending insert could still flip)."""
        return ~np.asarray(self._m0, dtype=bool)

    def contains(self, i: int) -> bool:
        """Membership of fingerprint ``i``, as of now (not batch start)."""
        if self._m0[i]:
            return True
        if self._staged:
            self._materialize()
        pending = self._pending
        if not pending:
            return False
        get = pending.get
        for row, bit, h in zip(self._rows[i], self._bits[i], self._hit[i]):
            if not h and not get(row, 0) & bit:
                return False
        return True

    def add(self, i: int) -> None:
        """Insert fingerprint ``i`` (visible to later ``contains`` calls)."""
        pending = self._pending
        get = pending.get
        for row, bit in zip(self._rows[i], self._bits[i]):
            pending[row] = get(row, 0) | bit
        self._added_pos.append(self._pos[i])
        self._bloom.n_added += 1

    def try_stage(self, lo: int, hi: int) -> bool:
        """Stage the inserts of chunks ``[lo, hi)`` in one batch — but only
        if every one of them is *provably* still absent, i.e. each has a
        snapshot-unset probe that no other insert of this batch (staged,
        scalar, or a peer inside the run itself) could have set. Returns
        False without staging anything when the proof fails (probe
        collision — the caller falls back to the scalar ladder, whose
        per-chunk ``contains``/``add`` sequence handles the collision
        exactly); the check is conservative, so a True answer is always
        bit-identical to the scalar sequence.
        """
        sub = self._pos[lo:hi]
        miss = ~self._hit_arr[lo:hi]
        flat = sub.ravel()
        uniq, inv, counts = np.unique(flat, return_inverse=True, return_counts=True)
        # a probe is a valid witness if no run peer shares it ...
        solo = (counts == 1)[inv].reshape(sub.shape)
        if self._added_pos:
            # ... and no earlier insert of this batch already set it
            added = np.concatenate([a.ravel() for a in self._added_pos])
            solo &= ~np.isin(flat, added).reshape(sub.shape)
        if not bool((solo & miss).any(axis=1).all()):
            return False
        self._staged.append(sub)
        self._added_pos.append(sub)
        self._bloom.n_added += hi - lo
        return True

    def _materialize(self) -> None:
        """Fold staged bulk inserts into the pending per-word dict so the
        scalar ``contains`` fast path sees them."""
        pos = np.concatenate([b.ravel() for b in self._staged])
        self._staged.clear()
        rows = (pos >> _U64(6)).astype(np.int64)
        bits = _U64(1) << (pos & _U64(63))
        order = np.argsort(rows, kind="stable")
        rows_s = rows[order]
        bits_s = bits[order]
        uniq, start = np.unique(rows_s, return_index=True)
        ors = np.bitwise_or.reduceat(bits_s, start)
        pending = self._pending
        get = pending.get
        for r, v in zip(uniq.tolist(), ors.tolist()):
            pending[r] = get(r, 0) | v

    def flush(self) -> None:
        """Fold pending and staged inserts into the filter's word array."""
        for block in self._staged:
            pos = block.ravel()
            rows = (pos >> _U64(6)).astype(np.int64)
            bits = _U64(1) << (pos & _U64(63))
            np.bitwise_or.at(self._bloom._words, rows, bits)
        self._staged.clear()
        pending = self._pending
        if not pending:
            return
        rows = np.fromiter(pending.keys(), dtype=np.int64, count=len(pending))
        vals = np.fromiter(pending.values(), dtype=np.uint64, count=len(pending))
        # keys are unique, so plain fancy-index OR is safe
        self._bloom._words[rows] |= vals
        pending.clear()
