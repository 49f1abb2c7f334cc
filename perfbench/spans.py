"""Wall-clock spans recorded around the benchmark's calls into each layer.

The spans live in the benchmark, not in the program: each one brackets
one public call (``GearChunker.cut_boundaries``, ``process_segment``,
``end_generation``, ``RestoreReader.restore`` ...) and is named
``<layer>.<call>``, the layer being the ``repro`` package the call
belongs to. Spans of one backup share its ordinal, and a span's parent
is the span that was open when it started, so a layer's *self* time is
its spans' duration minus what their child spans cover.

A disabled tracer hands out one shared null context, so the untraced
passes that produce the end-to-end metrics pay one attribute lookup per
call and record nothing.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Dict, List, NamedTuple, Optional, Tuple

__all__ = ["Span", "Tracer", "self_times", "layer_table", "dominant_layer"]

_NULL = contextlib.nullcontext()


class Span(NamedTuple):
    name: str
    backup: int
    start: float
    end: float
    parent: int  # index into the tracer's span list, -1 for a root

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _Open:
    """Context manager for one live span (appended on exit)."""

    __slots__ = ("tracer", "name", "start", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Open":
        tracer = self.tracer
        # reserve the slot now so children can name this span as parent
        self.index = len(tracer.spans)
        tracer.spans.append(None)  # type: ignore[arg-type]
        tracer._stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack.pop()
        parent = tracer._stack[-1] if tracer._stack else -1
        tracer.spans[self.index] = Span(self.name, tracer.backup, self.start, end, parent)


class Tracer:
    """In-memory span recorder; ``span(name)`` is a context manager."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = bool(enabled)
        self.spans: List[Span] = []
        self.backup = -1
        self._stack: List[int] = []

    def span(self, name: str):
        if not self.enabled:
            return _NULL
        return _Open(self, name)

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]


def self_times(spans: List[Span]) -> Dict[str, Tuple[int, float]]:
    """``{span name: (calls, self seconds)}`` over a finished trace."""
    child_cover = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_cover[s.parent] += s.seconds
    out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    for s, covered in zip(spans, child_cover):
        row = out[s.name]
        row[0] += 1
        row[1] += s.seconds - covered
    return {name: (int(calls), secs) for name, (calls, secs) in out.items()}


#: span-name prefixes the benchmark itself owns: input synthesis and the
#: ground-truth oracle run outside the timed region, so they are shown
#: but never compete for "dominant layer"
BENCH_SIDE = ("workloads", "pipeline", "backup")


def layer_table(spans: List[Span]) -> List[Tuple[str, int, float, float]]:
    """Rows ``(span name, calls, self seconds, share of system time)``
    sorted by self time; the share's base is the self time of every span
    outside :data:`BENCH_SIDE` (the calls into the program)."""
    times = self_times(spans)
    system = sum(t for name, (_, t) in times.items() if not name.startswith(BENCH_SIDE))
    rows = []
    for name, (calls, secs) in times.items():
        share = secs / system if system and not name.startswith(BENCH_SIDE) else 0.0
        rows.append((name, calls, secs, share))
    rows.sort(key=lambda r: -r[2])
    return rows


def dominant_layer(spans: List[Span]) -> Optional[str]:
    """The layer (span-name prefix) with the most self time among the
    calls into the program, or None for an empty trace."""
    per_layer: Dict[str, float] = defaultdict(float)
    for name, (_, secs) in self_times(spans).items():
        if not name.startswith(BENCH_SIDE):
            per_layer[name.split(".", 1)[0]] += secs
    if not per_layer:
        return None
    return max(per_layer, key=per_layer.__getitem__)
