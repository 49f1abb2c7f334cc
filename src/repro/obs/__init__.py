"""``repro.obs`` — structured observability: metrics, spans, events.

The layer has three pieces (see DESIGN.md for the full model):

* :class:`~repro.obs.registry.MetricsRegistry` — process-local counters,
  gauges, fixed-edge histograms, and phase spans keyed by flat dotted
  names (``DeFrag.phase.identify``).
* :class:`~repro.obs.spans.EngineScope` — per-engine probe that
  attributes each segment's *simulated* time to pipeline phases from
  shared stats deltas (never wall-clock, never per-chunk).
* :mod:`~repro.obs.events` — the JSONL decision-trace channel
  (``defrag_decision``, ``cache_evict``, ``prefetch_yield``, ...).

Everything hangs off an :class:`Observability` session. The default is
:data:`NULL_OBS` (``enabled=False``): a disabled engine performs exactly
one attribute check per segment and records nothing, so benchmark
numbers and the product-vs-ladder oracle contract (``python -m pytest
tests/dedup/test_batch_equivalence.py``) are untouched. Enable a
session either explicitly (``engine = DeFragEngine(res, obs=obs)``) or
ambiently for a block of code::

    with obs_session(Observability(events=JsonlEventSink(path))) as obs:
        run_group_workload(config)      # engines built here record into obs
    print(obs.registry.render())
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional

from repro.obs.events import (
    EventSink,
    JsonlEventSink,
    ListEventSink,
    NULL_EVENTS,
    NullEventSink,
    read_jsonl,
)
from repro.obs.manifest import RunManifest, build_manifest
from repro.obs.registry import (
    Counter,
    FRACTION_EDGES,
    Gauge,
    Histogram,
    MetricsRegistry,
    SIM_SECONDS_EDGES,
    SPL_EDGES,
    Span,
    TimeSeries,
    YIELD_EDGES,
    chunking_summary,
    render_snapshot,
)
from repro.obs.rss import peak_rss_bytes, peak_rss_mb
from repro.obs.spans import EngineScope, INGEST_PHASES
from repro.obs.trace_export import export_chrome_trace, write_chrome_trace

__all__ = [
    "Observability",
    "NULL_OBS",
    "get_active",
    "obs_session",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Span",
    "TimeSeries",
    "RunManifest",
    "build_manifest",
    "export_chrome_trace",
    "write_chrome_trace",
    "EngineScope",
    "INGEST_PHASES",
    "EventSink",
    "NullEventSink",
    "ListEventSink",
    "JsonlEventSink",
    "NULL_EVENTS",
    "read_jsonl",
    "peak_rss_bytes",
    "peak_rss_mb",
    "render_snapshot",
    "chunking_summary",
    "SPL_EDGES",
    "YIELD_EDGES",
    "SIM_SECONDS_EDGES",
    "FRACTION_EDGES",
]


class Observability:
    """One observability session: a registry plus an event sink.

    Args:
        registry: metrics registry (a fresh one by default).
        events: event sink; defaults to the shared null sink, so a
            session can be metrics-only at zero event cost.
        enabled: master switch. When False the session records nothing
            and instrumentation sites skip all work (the zero-overhead
            invariant); :data:`NULL_OBS` is the canonical disabled
            session.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        events: Optional[EventSink] = None,
        enabled: bool = True,
    ) -> None:
        self.enabled = bool(enabled)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.events = events if events is not None else NULL_EVENTS

    def scope_for(self, engine) -> EngineScope:
        """Build the per-engine metric scope (engines cache the result)."""
        return EngineScope(self.registry, self.events, engine)

    def span(self, name: str, sim_seconds: float, count: int = 1) -> None:
        """Record ``sim_seconds`` against the span called ``name``."""
        self.registry.span(name).record(sim_seconds, count=count)

    def close(self) -> None:
        """Flush/close the event sink (idempotent)."""
        self.events.close()


#: The default, disabled session. Shared and immutable by convention.
NULL_OBS = Observability(registry=MetricsRegistry(), events=NULL_EVENTS, enabled=False)

_active: Observability = NULL_OBS


def get_active() -> Observability:
    """The ambient session new engines adopt when ``obs`` is not passed.

    Defaults to :data:`NULL_OBS`; :func:`obs_session` swaps it for a
    block. Engines capture the session at construction time, so a
    session must be entered *before* building the engines it should
    observe.
    """
    return _active


@contextlib.contextmanager
def obs_session(obs: Optional[Observability] = None) -> Iterator[Observability]:
    """Make ``obs`` (default: a fresh enabled session) ambient for the
    dynamic extent of the ``with`` block, then restore the previous one
    and close the session's event sink."""
    global _active
    if obs is None:
        obs = Observability()
    prev = _active
    _active = obs
    try:
        yield obs
    finally:
        _active = prev
        obs.close()
