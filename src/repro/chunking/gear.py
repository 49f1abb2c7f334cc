"""Gear-hash content-defined chunking, numpy-vectorized.

The Gear rolling hash is ``h_i = (h_{i-1} << 1) + G[x_i]  (mod 2^64)``
with a random 256-entry gear table ``G``; a boundary is declared where
``h_i & mask == 0`` (mask with the low ``b = round(log2(avg_size))``
bits set), subject to min/max chunk-size clamps.

Unrolled, ``h_i = sum_k G[x_{i-k}] << k  (mod 2^64)``. The lag-``k`` term
is a multiple of ``2^k``, so terms with ``k >= b`` never reach the low
``b`` bits, and a term with ``k < b`` contributes only the low bits of
``G``:

    h_i mod 2^b = sum_{k<b} G[x_{i-k}] << k  (mod 2^b)

The boundary test therefore depends only on the trailing ``b`` bytes and
on ``G`` narrowed to a ``w``-bit lane (``w = 16`` for ``b <= 16``,
``w = 32`` for ``b <= 32``). The table is also pre-shifted left by
``w - b``, which moves the ``b`` tested bits to the top of the lane: the
shifted sum is zero exactly when the masked hash is, so the test needs no
mask pass.

The narrowed sum is evaluated over the whole buffer with shift-add
doubling: after the pass with shift ``s``, position ``i`` holds the lag
sum over its ``2s`` trailing bytes, so the passes ``s = 1, 2, 4, ...``
while ``s < b`` cover every lag that reaches the tested bits (four
passes at the default ``b = 13``). The buffer is walked in fixed
``_BLOCK``-byte blocks, each re-reading the ``b - 1`` bytes before it, so
temporaries stay bounded and in cache whatever the input size. Every
masked hit is a candidate; :func:`repro.chunking.select.select_cuts`
applies the min/max clamps.

The lanes are gathered two bytes at a time: a 65,536-entry pair table
holds ``lane(x0) | lane(x1) << w`` at index ``x0 | x1 << 8``, so
gathering it with the block read as little-endian uint16 and viewing the
result as lanes gives exactly the per-byte gather in half the lookups.
Blocks start at an even offset; an odd last byte takes one scalar
lookup.

The literal 64-lag uint64 sum is kept in ``tests/oracle/gear_oracle.py``
as the executable specification; the cuts here must match it on every
input.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from repro._util import KIB, check_positive, rng_from
from repro.chunking.base import Chunker
from repro.chunking.select import select_cuts

#: bytes per evaluation block. Measured with the pair-table gather on the
#: 8 MiB ``chunking_fixture`` buffer (x86_64 Xeon, 2 vCPU, numpy 2.4,
#: median of five rounds): 64-256 KiB blocks cut at 600-625 MB/s, 32 KiB
#: at ~530 (per-block call overhead), 512 KiB at ~540 and 1 MiB at ~450
#: (temporaries out of cache). 128 KiB tops the plateau
_BLOCK = 128 * KIB

#: simulated CPU bandwidth for the informational chunking span, matching
#: ``repro.dedup.base.SegmentCost.cpu_seconds_per_byte`` (1/600e6) so the
#: traced phase breakdown prices chunking like the engines price their
#: analytic CPU term
_SIM_CPU_BYTES_PER_SECOND = 600e6


class ChunkScanStats(NamedTuple):
    """Accounting of one ``cut_boundaries`` call."""

    bytes_in: int
    chunks_out: int
    #: masked-hash hits over the whole buffer, before the min/max clamps
    candidates: int


def _gear_table(seed: int) -> np.ndarray:
    """The 256-entry random gear table, derived deterministically."""
    rng = rng_from(seed, "gear-table")
    return rng.integers(0, 2**64, size=256, dtype=np.uint64)


def _mask_bits(avg_size: int) -> int:
    """``round(log2(avg))`` (at least 1): the number of low hash bits
    tested, so boundaries fire with probability 1/avg per position."""
    return max(1, int(round(np.log2(avg_size))))


def _narrow_table(table: np.ndarray, bits: int) -> np.ndarray:
    """The gear table narrowed to the smallest lane holding ``bits`` and
    shifted so those low bits sit at the top of the lane."""
    for dtype in (np.uint16, np.uint32):
        width = np.dtype(dtype).itemsize * 8
        if bits <= width:
            return (table << np.uint64(width - bits)).astype(dtype)
    raise ValueError(f"boundary mask of {bits} bits exceeds 32 (avg_size too large)")


def _pair_table(lanes: np.ndarray) -> np.ndarray:
    """The lanes of every byte pair, indexed by the pair read as one
    little-endian uint16: ``T[x0 | x1 << 8]`` viewed as lanes is
    ``[lanes[x0], lanes[x1]]``, so one gather fills two lanes."""
    wide = np.uint32 if lanes.dtype == np.uint16 else np.uint64
    pair = np.arange(1 << 16)
    low = lanes[pair & 0xFF].astype(wide)
    high = lanes[pair >> 8].astype(wide)
    return low | (high << wide(8 * lanes.itemsize))


class GearChunker(Chunker):
    """Content-defined chunker using the Gear rolling hash.

    Args:
        avg_size: target average chunk size (sets the boundary mask).
        min_size: no boundary closer than this to the previous cut.
        max_size: force a cut at this length if no boundary fired.
        seed: gear-table seed (two chunkers with the same seed cut
            identically — required for dedup to work at all).

    After every :meth:`cut_boundaries` call, :attr:`last_stats` holds the
    call's :class:`ChunkScanStats`; when an observability session is
    active, the same accounting lands on the ``chunking.*`` counters and
    the ``chunking.phase.cut`` span.
    """

    def __init__(
        self,
        avg_size: int = 8 * KIB,
        min_size: "int | None" = None,
        max_size: "int | None" = None,
        seed: int = 2012,
    ) -> None:
        check_positive("avg_size", avg_size)
        self.avg_size = int(avg_size)
        self.min_size = int(min_size) if min_size is not None else self.avg_size // 4
        self.max_size = int(max_size) if max_size is not None else self.avg_size * 4
        if not 0 < self.min_size <= self.avg_size <= self.max_size:
            raise ValueError(
                f"need 0 < min <= avg <= max, got "
                f"{self.min_size}/{self.avg_size}/{self.max_size}"
            )
        self.seed = int(seed)
        self._bits = _mask_bits(self.avg_size)
        self._lanes = _narrow_table(_gear_table(seed), self._bits)
        self._pairs = _pair_table(self._lanes)
        self.last_stats: Optional[ChunkScanStats] = None

    def _candidates(self, buf: np.ndarray) -> np.ndarray:
        """Every cut offset ``i + 1`` whose masked hash at ``i`` is zero.

        Each block gathers its bytes plus the ``b - 1`` before it, read
        from an even offset as little-endian byte pairs through the pair
        table; an odd last byte takes one scalar lookup.
        """
        bits = self._bits
        lanes, pairs = self._lanes, self._pairs
        carry = bits - 1
        n = buf.size
        width = min(n, _BLOCK) + carry + 1
        h_pairs = np.empty((width + 1) // 2, dtype=pairs.dtype)
        h_all = h_pairs.view(lanes.dtype)
        tmp = np.empty(width, dtype=lanes.dtype)
        found = []
        for start in range(0, n, _BLOCK):
            end = min(start + _BLOCK, n)
            lo = max(start - carry, 0) & ~1
            m = end - lo
            half = m // 2
            # every uint16 index is in range, so "wrap" never wraps; it
            # only spares the bounds-checked copy that out= costs in "raise"
            np.take(pairs, buf[lo : lo + 2 * half].view("<u2"), out=h_pairs[:half], mode="wrap")
            h = h_all[:m]
            if m & 1:
                h[-1] = lanes[buf[end - 1]]
            s = 1
            while s < bits and s < m:
                np.add(h[s:], np.left_shift(h[:-s], s, out=tmp[: m - s]), out=h[s:])
                s *= 2
            found.append(np.flatnonzero(h[start - lo :] == 0) + (start + 1))
        return np.concatenate(found)

    def cut_boundaries(self, data: bytes) -> np.ndarray:
        buf = np.frombuffer(data, dtype=np.uint8)
        if buf.size == 0:
            self._record(ChunkScanStats(0, 0, 0))
            return np.zeros(1, dtype=np.int64)
        candidates = self._candidates(buf)
        cuts = select_cuts(candidates, buf.size, self.min_size, self.max_size)
        self._record(ChunkScanStats(buf.size, cuts.size - 1, candidates.size))
        return cuts

    def _record(self, stats: ChunkScanStats) -> None:
        """Stash per-call stats; mirror them to an active obs session.

        Recording never influences the cuts, so obs on/off runs stay
        byte-identical (the twin-run contract).
        """
        self.last_stats = stats
        from repro.obs import get_active

        obs = get_active()
        if not obs.enabled:
            return
        r = obs.registry
        r.counter("chunking.bytes_in").inc(stats.bytes_in)
        r.counter("chunking.chunks_out").inc(stats.chunks_out)
        r.counter("chunking.candidates").inc(stats.candidates)
        obs.span(
            "chunking.phase.cut", stats.bytes_in / _SIM_CPU_BYTES_PER_SECOND
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GearChunker(avg={self.avg_size}, min={self.min_size}, "
            f"max={self.max_size}, seed={self.seed})"
        )
