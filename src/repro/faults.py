"""``repro.faults`` — deterministic fault injection at the disk boundary.

The paper's performance argument assumes the container log stays
*consistent*; a production-grade reproduction must also survive the
failure modes real container logs face — torn seals, lost index flushes,
crashes mid-GC. This module supplies the failure half of that story:

* :class:`FaultPlan` — a seeded, fully deterministic schedule of faults
  keyed by *disk operation count* (every :class:`FaultyDisk` read/write
  increments the counter exactly once, so a plan replays identically).
* :class:`FaultInjector` — the per-run interpreter of a plan. It raises
  :class:`TransientIOError` for scheduled IO errors, raises
  :class:`SimulatedCrash` at the scheduled crash point, and answers the
  index's "was this flush dropped?" question. It also keeps the op
  census (op kind + context-tag stack) that the chaos harness uses to
  pick crash points covering seals, index flushes, and GC.
* :class:`FaultyDisk` — a :class:`~repro.storage.disk.DiskModel` that
  consults an injector after charging each operation (a failed IO still
  spent its simulated time).
* :class:`RetryPolicy` / :func:`with_retry` — exponential backoff for
  transient errors, priced on the *simulated* clock and counted in
  ``repro.obs`` (``retry`` events, ``faults.retries`` counter).

The layer is strictly opt-in: plain :class:`DiskModel` runs carry no
injector, the store/index bind their raw disk methods, and no charge or
branch is added to the default path (the ``repro all`` byte-identity
smoke enforces this).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, FrozenSet, Iterator, List, Optional, Tuple

import numpy as np

from repro._util import check_positive
from repro._util.rng import rng_from
from repro.storage.disk import DiskModel


__all__ = [
    "TransientIOError",
    "FatalIOError",
    "SimulatedCrash",
    "RetryPolicy",
    "with_retry",
    "FaultPlan",
    "FaultInjector",
    "FaultyDisk",
    "injector_of",
]


class TransientIOError(RuntimeError):
    """One disk operation failed; a retry may succeed."""

    def __init__(self, op: int, tag: str) -> None:
        super().__init__(f"injected transient IO error at disk op {op} [{tag or 'io'}]")
        self.op = op
        self.tag = tag


class FatalIOError(RuntimeError):
    """A retried operation exhausted its attempts."""


class SimulatedCrash(Exception):
    """Power loss: everything volatile is gone; the durable log survives.

    Raised by the injector *after* the interrupted operation charged its
    simulated time (the crash happened while the head was busy). The
    ``tags`` tuple is the context stack at the crash point (e.g.
    ``("gc", "seal_marker")``) — the chaos report classifies crash sites
    with it.
    """

    def __init__(self, op: int, tags: Tuple[str, ...]) -> None:
        super().__init__(f"simulated crash at disk op {op} [{'.'.join(tags) or 'io'}]")
        self.op = op
        self.tags = tags


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff for transient IO errors.

    Attributes:
        max_attempts: total tries (first attempt included).
        base_delay_s: simulated pause before the first retry.
        multiplier: backoff growth factor per retry.
    """

    max_attempts: int = 4
    base_delay_s: float = 2e-3
    multiplier: float = 4.0

    def __post_init__(self) -> None:
        check_positive("max_attempts", self.max_attempts)
        check_positive("base_delay_s", self.base_delay_s)
        check_positive("multiplier", self.multiplier)


def with_retry(
    disk: DiskModel, policy: RetryPolicy, fn: Callable, op_name: str
) -> Callable:
    """Wrap a disk-charging callable with the retry policy.

    Backoff pauses advance the shared simulated clock (a retrying store
    is a *waiting* store), and every retry is visible to the ambient
    observability session as a ``retry`` event plus the
    ``faults.retries`` counter. :class:`SimulatedCrash` is never retried
    — power loss is not transient.
    """

    def call(*args, **kwargs):
        from repro.obs import get_active

        delay = policy.base_delay_s
        for attempt in range(1, policy.max_attempts + 1):
            try:
                return fn(*args, **kwargs)
            except TransientIOError as exc:
                inj = injector_of(disk)
                if inj is not None:
                    inj.retries += 1
                obs = get_active()
                if obs.enabled:
                    obs.registry.counter("faults.retries").inc()
                    if obs.events.enabled:
                        obs.events.emit(
                            "retry",
                            op=op_name,
                            disk_op=exc.op,
                            attempt=attempt,
                            backoff_s=delay if attempt < policy.max_attempts else 0.0,
                        )
                if attempt == policy.max_attempts:
                    raise FatalIOError(
                        f"{op_name}: gave up after {policy.max_attempts} attempts"
                    ) from exc
                disk.clock.advance(delay)
                delay *= policy.multiplier

    call.__name__ = f"retrying_{op_name}"
    return call


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic fault schedule.

    Operation indices are 1-based counts of :class:`FaultyDisk`
    read/write calls (retried attempts count as new operations, so a
    burst of consecutive indices exercises the backoff ladder).

    Attributes:
        crash_at: disk op at which power is lost (None = never).
        io_errors: op indices that fail with :class:`TransientIOError`.
        drop_flushes: 1-based *index-flush* counts whose write is
            silently lost (the caller believes it succeeded; the entries
            are only discovered missing after a crash).
    """

    crash_at: Optional[int] = None
    io_errors: FrozenSet[int] = frozenset()
    drop_flushes: FrozenSet[int] = frozenset()

    @classmethod
    def seeded(
        cls,
        seed: int,
        n_ops: int,
        crash_at: Optional[int] = None,
        n_io_errors: int = 0,
        burst: int = 2,
        n_drop_flushes: int = 0,
        n_flushes: int = 0,
    ) -> "FaultPlan":
        """Derive a plan from a seed: ``n_io_errors`` bursts of
        ``burst`` consecutive transient errors spread over ``n_ops``
        operations, plus ``n_drop_flushes`` dropped index flushes out of
        an expected ``n_flushes``."""
        rng = rng_from(seed, "fault-plan")
        errors: List[int] = []
        if n_io_errors and n_ops > 1:
            starts = rng.choice(
                np.arange(1, max(2, n_ops)), size=min(n_io_errors, n_ops - 1), replace=False
            )
            for s in sorted(int(x) for x in starts):
                errors.extend(range(s, s + burst))
        drops: List[int] = []
        if n_drop_flushes and n_flushes:
            picks = rng.choice(
                np.arange(1, n_flushes + 1), size=min(n_drop_flushes, n_flushes), replace=False
            )
            drops = sorted(int(x) for x in picks)
        return cls(
            crash_at=crash_at,
            io_errors=frozenset(errors),
            drop_flushes=frozenset(drops),
        )


class FaultInjector:
    """Interprets a :class:`FaultPlan` against the live operation stream.

    One injector per simulated machine; it is shared by every component
    charging the same :class:`FaultyDisk`. With ``record=True`` it also
    keeps the full op census ``(kind, tags)`` — the chaos harness runs a
    fault-free reference pass in record mode to learn where seals, index
    flushes, and GC operations land before choosing crash points.
    """

    def __init__(self, plan: Optional[FaultPlan] = None, record: bool = False) -> None:
        self.plan = plan if plan is not None else FaultPlan()
        self.op_count = 0
        self.flush_count = 0
        self.retries = 0
        self.injected_io_errors = 0
        self.injected_crashes = 0
        self.dropped_flushes = 0
        self.crashed = False
        self.op_log: Optional[List[Tuple[str, Tuple[str, ...]]]] = [] if record else None
        self._tags: List[str] = []

    # -- context tagging -------------------------------------------------

    @contextlib.contextmanager
    def tagged(self, tag: str) -> Iterator[None]:
        """Label operations issued inside the block (``seal``,
        ``seal_marker``, ``index_flush``, ``journal``, ``gc`` ...)."""
        self._tags.append(tag)
        try:
            yield
        finally:
            self._tags.pop()

    @property
    def tags(self) -> Tuple[str, ...]:
        return tuple(self._tags)

    # -- hooks -----------------------------------------------------------

    def after_io(self, kind: str, nbytes: int) -> None:
        """Called by :class:`FaultyDisk` after each charged read/write."""
        self.op_count += 1
        if self.op_log is not None:
            self.op_log.append((kind, self.tags))
        op = self.op_count
        plan = self.plan
        if not self.crashed and plan.crash_at is not None and op == plan.crash_at:
            self.crashed = True
            self.injected_crashes += 1
            self._emit("crash", op)
            raise SimulatedCrash(op, self.tags)
        if op in plan.io_errors:
            self.injected_io_errors += 1
            self._emit("io_error", op)
            raise TransientIOError(op, ".".join(self.tags))

    def take_flush_drop(self) -> bool:
        """Called by the index once per flush; True = this flush's write
        was silently lost (entries stay volatile)."""
        self.flush_count += 1
        if self.flush_count in self.plan.drop_flushes:
            self.dropped_flushes += 1
            self._emit("dropped_flush", self.op_count)
            return True
        return False

    def _emit(self, kind: str, op: int) -> None:
        from repro.obs import get_active

        obs = get_active()
        if not obs.enabled:
            return
        obs.registry.counter(f"faults.injected.{kind}").inc()
        if obs.events.enabled:
            obs.events.emit(
                "fault_injected", kind=kind, disk_op=op, tags=".".join(self.tags)
            )


@dataclass
class FaultyDisk(DiskModel):
    """A :class:`DiskModel` whose operations pass through an injector.

    Charging happens *before* injection: a failed or interrupted
    operation still spent its seek and transfer time, which keeps the
    simulated clock deterministic across retries and crashes.
    """

    injector: FaultInjector = field(default_factory=FaultInjector)

    def read(self, nbytes: int, *, seeks: int = 0) -> float:
        t = super().read(nbytes, seeks=seeks)
        self.injector.after_io("read", nbytes)
        return t

    def write(self, nbytes: int, *, seeks: int = 0) -> float:
        t = super().write(nbytes, seeks=seeks)
        self.injector.after_io("write", nbytes)
        return t


def injector_of(disk: DiskModel) -> Optional[FaultInjector]:
    """The disk's injector, or None for a plain (fault-free) disk."""
    return getattr(disk, "injector", None)
