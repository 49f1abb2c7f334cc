"""Process-local metrics registry: counters, gauges, histograms, spans,
time series.

Every metric lives in one :class:`MetricsRegistry` keyed by a flat dotted
name (engines prefix their own: ``DeFrag.phase.identify``). Nothing here
ever reads the wall clock — span durations and time-series sample times
come from the *simulated* clock handed in by the caller — so recording
metrics can never perturb the reproduction's reported numbers, and the
product-vs-ladder byte-equivalence contract (``python -m pytest
tests/dedup/test_batch_equivalence.py``) extends to the metrics
themselves.

Histograms use **fixed bucket edges** chosen at creation: bucket ``i``
counts values in ``(edges[i-1], edges[i]]`` with an implicit first bucket
``(-inf, edges[0]]`` and overflow bucket ``(edges[-1], +inf)``. Fixed
edges keep snapshots comparable across runs and keep ``observe`` O(log
n_edges) with no allocation.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Sequence, Tuple

from repro.obs.timeseries import DEFAULT_MAX_SAMPLES, TimeSeries

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Span",
    "TimeSeries",
    "MetricsRegistry",
    "chunking_summary",
    "SPL_EDGES",
    "YIELD_EDGES",
    "SIM_SECONDS_EDGES",
    "FRACTION_EDGES",
]

#: SPL values live in [0, 1]; fine near 0 where the rewrite threshold
#: (paper: alpha = 0.1) cuts.
SPL_EDGES: Tuple[float, ...] = (0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0)

#: Cache hits bought per prefetched unit (hits/prefetch); decays from
#: tens toward ~1 as placement de-linearizes.
YIELD_EDGES: Tuple[float, ...] = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Simulated seconds per segment (geometric ladder around ms..s).
SIM_SECONDS_EDGES: Tuple[float, ...] = (
    1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0,
)

#: Generic [0, 1] fractions (duplicate share of a segment, etc.).
FRACTION_EDGES: Tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


class Counter:
    """Monotonic count (int or float increments)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n=1) -> None:
        self.value += n


class Gauge:
    """Last-write-wins instantaneous value.

    Merge semantics (see :meth:`MetricsRegistry.merge`): a merged gauge
    simply takes the incoming snapshot's value — later merges overwrite
    earlier ones. The parallel grid merges per-cell snapshots in stable
    spec order, so the surviving value is the last cell's, exactly what
    serial recording into one registry would have left behind. Gauges
    are therefore only meaningful for values where "most recent wins"
    is the right aggregation (occupancy, configuration echoes), never
    for totals — use a :class:`Counter` for anything additive.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket-edge histogram with sum/count."""

    __slots__ = ("name", "edges", "counts", "count", "sum")

    def __init__(self, name: str, edges: Sequence[float]) -> None:
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        e = tuple(float(x) for x in edges)
        if list(e) != sorted(set(e)):
            raise ValueError(f"bucket edges must be strictly increasing, got {e}")
        self.name = name
        self.edges = e
        self.counts: List[int] = [0] * (len(e) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def buckets(self) -> List[Tuple[str, int]]:
        """(human label, count) per bucket, in order."""
        out: List[Tuple[str, int]] = []
        lo = None
        for edge, n in zip(self.edges, self.counts):
            label = f"<= {edge:g}" if lo is None else f"({lo:g}, {edge:g}]"
            out.append((label, n))
            lo = edge
        out.append((f"> {self.edges[-1]:g}", self.counts[-1]))
        return out


class Span:
    """Accumulated phase time: how many times a phase ran and how many
    *simulated* seconds it covered. Durations are clock deltas supplied
    by the instrumentation site — never wall-clock reads."""

    __slots__ = ("name", "count", "sim_seconds")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.sim_seconds = 0.0

    def record(self, sim_seconds: float, count: int = 1) -> None:
        self.count += count
        self.sim_seconds += sim_seconds


class MetricsRegistry:
    """Flat name -> metric map with get-or-create accessors.

    Accessors are idempotent: asking for an existing name returns the
    existing metric (and raises if it is of a different kind, or — for
    histograms — was created with different bucket edges).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    # -- accessors -------------------------------------------------------

    def _get_or_create(self, name: str, kind, *args):
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name, *args)
            self._metrics[name] = metric
        elif type(metric) is not kind:
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str, edges: Sequence[float]) -> Histogram:
        hist = self._get_or_create(name, Histogram, edges)
        if hist.edges != tuple(float(x) for x in edges):
            raise ValueError(
                f"histogram {name!r} already registered with edges {hist.edges}"
            )
        return hist

    def span(self, name: str) -> Span:
        return self._get_or_create(name, Span)

    def timeseries(self, name: str, max_samples: int = DEFAULT_MAX_SAMPLES) -> TimeSeries:
        ts = self._get_or_create(name, TimeSeries, max_samples)
        if ts.max_samples != int(max_samples):
            raise ValueError(
                f"timeseries {name!r} already registered with "
                f"max_samples={ts.max_samples}"
            )
        return ts

    # -- introspection ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str):
        """The metric registered under ``name``, or None."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def by_kind(self, kind) -> List:
        """All metrics of one kind, name-sorted."""
        return [self._metrics[n] for n in self.names() if type(self._metrics[n]) is kind]

    def snapshot(self) -> Dict:
        """A JSON-serializable dump of every metric."""
        out: Dict[str, Dict] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "spans": {},
            "timeseries": {},
        }
        for name in self.names():
            m = self._metrics[name]
            if type(m) is Counter:
                out["counters"][name] = m.value
            elif type(m) is Gauge:
                out["gauges"][name] = m.value
            elif type(m) is Histogram:
                out["histograms"][name] = {
                    "edges": list(m.edges),
                    "counts": list(m.counts),
                    "count": m.count,
                    "sum": m.sum,
                }
            elif type(m) is TimeSeries:
                out["timeseries"][name] = m.snapshot()
            else:
                out["spans"][name] = {"count": m.count, "sim_seconds": m.sim_seconds}
        return out

    def merge(self, snapshot: Dict) -> None:
        """Fold a :meth:`snapshot` dict from another registry into this one.

        The parallel grid runner uses this to re-assemble per-cell worker
        registries into the parent session: counters and spans add, histogram
        bucket counts/sums add (edges must match), time series interleave
        their samples by sim time (receiver wins ties) and re-thin under the
        coarser resolution, and gauges are **last-write-wins** — the incoming
        value simply overwrites the current one, so merge order must be the
        stable cell order for gauge determinism. Merging the snapshots of
        disjoint registries in execution order reproduces exactly what serial
        recording into one registry would have produced.

        A name registered here under one kind and arriving in ``snapshot``
        under a different kind raises ``TypeError`` before any partial
        mutation of that metric.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, h in snapshot.get("histograms", {}).items():
            hist = self.histogram(name, h["edges"])
            for i, n in enumerate(h["counts"]):
                hist.counts[i] += n
            hist.count += h["count"]
            hist.sum += h["sum"]
        for name, s in snapshot.get("spans", {}).items():
            self.span(name).record(s["sim_seconds"], count=s["count"])
        for name, ts in snapshot.get("timeseries", {}).items():
            self.timeseries(name, ts.get("max_samples", DEFAULT_MAX_SAMPLES)).merge_snapshot(ts)

    def render(self) -> str:
        """Human-readable text dump (``repro stats``)."""
        return render_snapshot(self.snapshot())

    def reset(self) -> None:
        """Drop every registered metric."""
        self._metrics.clear()


def chunking_summary(snap: Dict) -> List[Tuple[str, str]]:
    """Derived CDC figures from the raw ``chunking.*`` counters and the
    ``chunking.phase.cut`` span: mean chunk size and the masked-hash
    candidates behind the cuts. Empty when the snapshot has no chunking
    activity (non-byte-level runs)."""
    counters = snap.get("counters", {})
    bytes_in = counters.get("chunking.bytes_in", 0)
    if not bytes_in:
        return []
    chunks = counters.get("chunking.chunks_out", 0)
    out = [
        ("bytes_in", f"{bytes_in}"),
        ("chunks_out", f"{chunks}"),
        ("mean_chunk_bytes", f"{bytes_in / chunks:.1f}" if chunks else "0"),
        ("candidates", f"{counters.get('chunking.candidates', 0)}"),
    ]
    cut = snap.get("spans", {}).get("chunking.phase.cut")
    if cut:
        out.append(
            ("cut_span", f"n={cut['count']} sim={cut['sim_seconds']:.6f}s")
        )
    return out


def render_snapshot(snap: Dict) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict as aligned text."""
    lines: List[str] = []
    spans = snap.get("spans", {})
    if spans:
        lines.append("== phase spans (simulated seconds) ==")
        width = max(len(n) for n in spans)
        for name in sorted(spans):
            s = spans[name]
            lines.append(
                f"{name:<{width}}  n={s['count']:>8}  sim={s['sim_seconds']:.6f}s"
            )
    counters = snap.get("counters", {})
    if counters:
        lines.append("== counters ==")
        width = max(len(n) for n in counters)
        for name in sorted(counters):
            lines.append(f"{name:<{width}}  {counters[name]}")
    chunking = chunking_summary(snap)
    if chunking:
        lines.append("== chunking (derived) ==")
        width = max(len(k) for k, _ in chunking)
        for key, value in chunking:
            lines.append(f"{key:<{width}}  {value}")
    gauges = snap.get("gauges", {})
    if gauges:
        lines.append("== gauges ==")
        width = max(len(n) for n in gauges)
        for name in sorted(gauges):
            lines.append(f"{name:<{width}}  {gauges[name]:g}")
    hists = snap.get("histograms", {})
    if hists:
        lines.append("== histograms ==")
        for name in sorted(hists):
            h = hists[name]
            mean = h["sum"] / h["count"] if h["count"] else 0.0
            lines.append(f"{name}: n={h['count']} mean={mean:.4f}")
            lo = None
            for edge, n in zip(h["edges"], h["counts"]):
                label = f"<= {edge:g}" if lo is None else f"({lo:g}, {edge:g}]"
                if n:
                    lines.append(f"  {label:<16} {n}")
                lo = edge
            if h["counts"][-1]:
                lines.append(f"  {'> ' + format(h['edges'][-1], 'g'):<16} {h['counts'][-1]}")
    series = snap.get("timeseries", {})
    if series:
        lines.append("== time series ==")
        for name in sorted(series):
            ts = series[name]
            pts = ts.get("samples", [])
            if not pts:
                lines.append(f"{name}: n=0")
                continue
            vals = [v for _, v in pts]
            lines.append(
                f"{name}: n={ts.get('count', len(pts))} kept={len(pts)} "
                f"t=[{pts[0][0]:.4f}, {pts[-1][0]:.4f}] "
                f"last={pts[-1][1]:g} min={min(vals):g} max={max(vals):g}"
            )
    return "\n".join(lines)
