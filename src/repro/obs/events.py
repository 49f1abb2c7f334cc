"""Structured event sinks: the JSONL decision-trace channel.

Events are flat dicts with a ``type`` key. The hot paths are guarded by
the sink's ``enabled`` flag (and by ``Observability.enabled`` above it),
so a disabled run never builds an event dict, never serializes, and
never touches the filesystem — the zero-overhead-when-disabled
invariant.

Event vocabulary emitted by the engines (see DESIGN.md):

* ``defrag_decision`` — one per (incoming segment, referenced stored
  segment): the SPL value, the policy threshold, and whether the shared
  duplicates were rewritten or deduplicated.
* ``cache_evict`` — a prefetched unit fell out of the locality cache.
* ``prefetch_yield`` — per backup: cache hits bought per prefetched unit.
* ``segment_span`` — per segment: simulated-clock phase attribution.
* ``backup`` / ``restore`` / ``gc_pass`` — lifecycle summaries.

And by the fault/recovery subsystem (``repro.faults``,
``repro.storage.recovery``):

* ``fault_injected`` — the injector fired a planned fault: the kind
  (``crash``, ``io_error``, ``drop_flush``), the 1-based disk op, and
  the context tags (``seal``, ``seal_marker``, ``index_flush``,
  ``journal``, ``gc``) naming the durability window it landed in.
* ``retry`` — a transient IO error was absorbed by the retry policy:
  which wrapped op, which attempt, and the backoff delay charged to the
  simulated clock.
* ``recovery_pass`` — one :class:`~repro.storage.recovery.RecoveryScanner`
  run: containers scanned, torn tails truncated, index entries rebuilt,
  GC rollback/roll-forward decisions, recipes remapped.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

__all__ = ["EventSink", "NullEventSink", "JsonlEventSink", "ListEventSink", "NULL_EVENTS"]


class EventSink:
    """Interface: ``emit(type, **fields)`` plus an ``enabled`` flag."""

    enabled = True

    def emit(self, type: str, **fields) -> None:  # noqa: A002 - event type
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (idempotent)."""

    def flush(self) -> None:
        """Push buffered events to their destination (idempotent).

        The grid runner flushes the parent sink before forking workers so
        a child process can never exit holding (and re-writing) a copy of
        the parent's buffered output.
        """

    def __enter__(self) -> "EventSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class NullEventSink(EventSink):
    """Discards everything; ``enabled`` is False so instrumentation
    sites can skip building the event at all."""

    enabled = False

    def emit(self, type: str, **fields) -> None:  # noqa: A002
        pass


#: Shared do-nothing sink (stateless, safe to share globally).
NULL_EVENTS = NullEventSink()


class ListEventSink(EventSink):
    """Collects events in memory — tests and small analysis scripts."""

    def __init__(self) -> None:
        self.events: List[Dict] = []

    @property
    def n_events(self) -> int:
        return len(self.events)

    def emit(self, type: str, **fields) -> None:  # noqa: A002
        fields["type"] = type
        self.events.append(fields)

    def of_type(self, type: str) -> List[Dict]:  # noqa: A002
        return [e for e in self.events if e["type"] == type]


class JsonlEventSink(EventSink):
    """Appends one compact JSON object per event to a file.

    Usable as a context manager (``with JsonlEventSink(p) as sink:``);
    ``close()`` is idempotent either way. The sink flushes to disk every
    ``flush_every`` events so a crashed or fault-injected run leaves at
    most that many events unwritten instead of a silently truncated
    trace.

    Args:
        path: output file (opened lazily on the first event, truncated).
        flush_every: flush after every N events (0 disables periodic
            flushing; the OS/interpreter then decides when bytes land).
    """

    def __init__(self, path: Union[str, Path], flush_every: int = 64) -> None:
        if flush_every < 0:
            raise ValueError(f"flush_every cannot be negative, got {flush_every}")
        self.path = Path(path)
        self.flush_every = int(flush_every)
        self.n_events = 0
        self._fh = None

    def emit(self, type: str, **fields) -> None:  # noqa: A002
        if self._fh is None:
            self._fh = self.path.open("w")
        fields["type"] = type
        json.dump(fields, self._fh, separators=(",", ":"))
        self._fh.write("\n")
        self.n_events += 1
        if self.flush_every and self.n_events % self.flush_every == 0:
            self._fh.flush()

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_jsonl(path: Union[str, Path], type: Optional[str] = None) -> List[Dict]:  # noqa: A002
    """Load a JSONL event file (optionally filtered by event type)."""
    out: List[Dict] = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            event = json.loads(line)
            if type is None or event.get("type") == type:
                out.append(event)
    return out
