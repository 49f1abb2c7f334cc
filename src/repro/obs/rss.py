"""Process peak-RSS measurement (the memory probe's one real number).

Everything else ``repro.obs`` records lives on the simulated clock;
peak RSS is deliberately a *machine* measurement — it is what the
out-of-core store exists to bound, and the only meaningful way to gate
it is to ask the kernel what the process actually used.
"""

from __future__ import annotations

import sys

__all__ = ["peak_rss_bytes", "peak_rss_mb"]


def peak_rss_bytes() -> int:
    """High-water-mark resident set size of this process, in bytes.

    Returns 0 on platforms without :mod:`resource` (the gate treats
    that as "unmeasurable", never as "within budget" — callers must
    check for 0 before gating).
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss is bytes
        return int(peak)
    return int(peak) * 1024  # Linux reports kilobytes


def peak_rss_mb() -> float:
    """Peak RSS in (decimal) megabytes, the unit BENCH_memory.json uses."""
    return peak_rss_bytes() / 1e6
