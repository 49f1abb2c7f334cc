"""Phase spans: simulated-clock attribution of the ingest pipeline.

A *span* is an accumulated (count, simulated seconds) pair per pipeline
phase. The engine base class probes shared meters (disk, index, cache,
store) at segment boundaries and attributes the segment's simulated time
to phases **exactly**, because every disk charge in the model has a
closed form:

* ``cpu`` — the analytic CPU term (chunking, fingerprinting, RAM ladder
  work including bloom probes and cache lookups, which cost no simulated
  disk time by construction).
* ``index_fault`` — on-disk index bucket reads: each fault charges one
  seek plus one page transfer, so ``faults x access_time(page_bytes, 1)``
  is exact.
* ``meta_prefetch`` — locality prefetches (container metadata sections,
  SiLo block indexes, sparse-index manifests): the remaining read+seek
  time once faults and seal seeks are subtracted.
* ``container_append`` — sealing containers to the log (write transfer
  plus the store's configured seal seeks).

The four phases partition each segment's disk+CPU simulated time, and
they are derived from the *shared stats counters* — which the oracle
suite (``python -m pytest tests/dedup/test_batch_equivalence.py``)
asserts byte-identical between the product engines and their
chunk-at-a-time ladders — so recording them can never diverge either.

Probing happens once per segment (never per chunk) and only when
observability is enabled, preserving the zero-overhead-when-disabled
invariant.

Beyond cumulative spans, the scope also feeds the **time-series** layer
(PR 7): per-segment samples of the cache hit ratio and index fault rate,
and per-backup samples of the dedup ratio, rewrite fraction, recipe
fragmentation, container-store occupancy, and ingest throughput — each
timestamped with the *simulated* clock, so the trajectories the paper
plots (fragmentation and dedup evolving across generations) are visible
in any snapshot. Lifecycle events additionally carry ``t`` (the sim
clock at emission) so the Chrome trace exporter can place spans on a
timeline.
"""

from __future__ import annotations

from typing import Tuple

from repro.obs.registry import (
    FRACTION_EDGES,
    MetricsRegistry,
    SIM_SECONDS_EDGES,
    YIELD_EDGES,
)

__all__ = ["EngineScope", "INGEST_PHASES", "record_maintenance"]

#: The base per-segment phase names, in pipeline order.
INGEST_PHASES = ("cpu", "index_fault", "meta_prefetch", "container_append")

_MIB = 1024 * 1024


def _fragments_per_mib(recipe) -> float:
    """Recipe fragmentation (container runs per MiB of logical data) —
    the CFL-style de-linearization signal the paper tracks per
    generation. Lazy import keeps ``repro.obs`` import-independent of
    the storage layer at module load."""
    from repro.storage.layout import analyze_recipe

    return analyze_recipe(recipe).fragments_per_mib


def record_maintenance(obs, report) -> None:
    """Record one finished maintenance pass: a ``phase.maintenance``
    span, per-engine counters, and a ``maintenance_pass`` lifecycle
    event. Called by :meth:`~repro.dedup.base.DedupEngine
    .end_generation` only when the session is enabled, and only reads
    the completed :class:`~repro.dedup.base.MaintenanceReport` — every
    priced number is already fixed, so the twin-run contract holds."""
    reg = obs.registry
    p = report.engine
    reg.span(f"{p}.phase.maintenance").record(report.elapsed_seconds)
    reg.counter(f"{p}.maintenance.passes").inc()
    reg.counter(f"{p}.maintenance.containers_rewritten").inc(
        report.containers_rewritten
    )
    reg.counter(f"{p}.maintenance.bytes_moved").inc(report.bytes_moved)
    reg.counter(f"{p}.maintenance.bytes_reclaimed").inc(report.bytes_reclaimed)
    reg.counter(f"{p}.maintenance.redirected_chunks").inc(report.redirected_chunks)
    reg.counter(f"{p}.maintenance.index_lookups").inc(report.index_lookups)
    if obs.events.enabled:
        obs.events.emit(
            "maintenance_pass",
            engine=p,
            generation=report.generation,
            sim_seconds=report.elapsed_seconds,
            containers_rewritten=report.containers_rewritten,
            bytes_moved=report.bytes_moved,
            bytes_reclaimed=report.bytes_reclaimed,
            redirected_chunks=report.redirected_chunks,
            index_lookups=report.index_lookups,
        )


class EngineScope:
    """Pre-resolved metric handles + meter references for one engine.

    Created lazily on the first instrumented segment so construction
    order (engines build their caches after ``super().__init__``) does
    not matter. One scope per engine instance; engines sharing a registry
    but differing in display name record under distinct prefixes.
    """

    __slots__ = (
        "prefix",
        "events",
        "clock",
        "disk_stats",
        "index_stats",
        "store_stats",
        "cache_stats",
        "bloom",
        "seal_seek_seconds",
        "fault_seconds",
        "sp_cpu",
        "sp_fault",
        "sp_prefetch",
        "sp_append",
        "sp_segment",
        "c_segments",
        "c_chunks",
        "c_logical",
        "c_new",
        "c_removed",
        "c_rewritten",
        "c_index_lookups",
        "c_index_faults",
        "c_cache_lookups",
        "c_cache_hits",
        "c_prefetch_units",
        "c_evictions",
        "c_bloom_added",
        "h_seg_seconds",
        "h_dup_frac",
        "h_yield",
        "ts_hit_ratio",
        "ts_fault_rate",
        "ts_dedup_ratio",
        "ts_rewrite_frac",
        "ts_frag",
        "ts_occupancy",
        "ts_throughput",
    )

    def __init__(self, registry: MetricsRegistry, events, engine) -> None:
        p = engine.name
        self.prefix = p
        self.events = events
        disk = engine.res.disk
        self.clock = disk.clock
        self.disk_stats = disk.stats
        self.index_stats = engine.res.index.stats
        self.store_stats = engine.res.store.stats
        cache = getattr(engine, "cache", None)
        self.cache_stats = cache.stats if cache is not None else None
        self.bloom = getattr(engine, "bloom", None)
        profile = disk.profile
        self.seal_seek_seconds = engine.res.store.seal_seeks * profile.seek_time_s
        self.fault_seconds = profile.access_time(engine.res.index.page_bytes, seeks=1)

        self.sp_cpu = registry.span(f"{p}.phase.cpu")
        self.sp_fault = registry.span(f"{p}.phase.index_fault")
        self.sp_prefetch = registry.span(f"{p}.phase.meta_prefetch")
        self.sp_append = registry.span(f"{p}.phase.container_append")
        self.sp_segment = registry.span(f"{p}.phase.segment")
        self.c_segments = registry.counter(f"{p}.segments")
        self.c_chunks = registry.counter(f"{p}.chunks")
        self.c_logical = registry.counter(f"{p}.bytes.logical")
        self.c_new = registry.counter(f"{p}.bytes.written_new")
        self.c_removed = registry.counter(f"{p}.bytes.removed_dup")
        self.c_rewritten = registry.counter(f"{p}.bytes.rewritten_dup")
        self.c_index_lookups = registry.counter(f"{p}.index.lookups")
        self.c_index_faults = registry.counter(f"{p}.index.page_faults")
        self.c_cache_lookups = registry.counter(f"{p}.cache.lookups")
        self.c_cache_hits = registry.counter(f"{p}.cache.hits")
        self.c_prefetch_units = registry.counter(f"{p}.cache.units_prefetched")
        self.c_evictions = registry.counter(f"{p}.cache.units_evicted")
        self.c_bloom_added = registry.counter(f"{p}.bloom.added")
        self.h_seg_seconds = registry.histogram(
            f"{p}.segment_sim_seconds", SIM_SECONDS_EDGES
        )
        self.h_dup_frac = registry.histogram(
            f"{p}.segment_dup_fraction", FRACTION_EDGES
        )
        self.h_yield = registry.histogram(f"{p}.prefetch_yield", YIELD_EDGES)
        # time series, sampled on the simulated clock: per segment for
        # the fast-moving locality signals, per backup for the rest
        self.ts_hit_ratio = registry.timeseries(f"{p}.ts.cache_hit_ratio")
        self.ts_fault_rate = registry.timeseries(f"{p}.ts.index_fault_rate")
        self.ts_dedup_ratio = registry.timeseries(f"{p}.ts.dedup_ratio")
        self.ts_rewrite_frac = registry.timeseries(f"{p}.ts.rewrite_fraction")
        self.ts_frag = registry.timeseries(f"{p}.ts.frag_per_mib")
        self.ts_occupancy = registry.timeseries(f"{p}.ts.store_mib")
        self.ts_throughput = registry.timeseries(f"{p}.ts.throughput_mbps")

    # -- per-segment probe ----------------------------------------------

    def begin(self) -> Tuple:
        """Snapshot every shared meter the segment can move."""
        d = self.disk_stats
        i = self.index_stats
        c = self.cache_stats
        return (
            self.clock.now,
            d.read_time_s,
            d.write_time_s,
            d.seek_time_s,
            i.lookups,
            i.page_faults,
            self.store_stats.containers_sealed,
            (c.lookups, c.hits, c.units_inserted, c.units_evicted)
            if c is not None
            else None,
            self.bloom.n_added if self.bloom is not None else 0,
        )

    def end(self, generation: int, segment, outcome, snap: Tuple, cpu_s: float) -> None:
        """Attribute the segment's simulated time and counter deltas."""
        t0, r0, w0, k0, l0, f0, sealed0, c0, b0 = snap
        d = self.disk_stats
        i = self.index_stats
        total = self.clock.now - t0
        faults = i.page_faults - f0
        sealed = self.store_stats.containers_sealed - sealed0
        fault_s = faults * self.fault_seconds
        seal_seek_s = sealed * self.seal_seek_seconds
        append_s = (d.write_time_s - w0) + seal_seek_s
        prefetch_s = (d.read_time_s - r0) + (d.seek_time_s - k0) - fault_s - seal_seek_s

        self.sp_cpu.record(cpu_s)
        self.sp_fault.record(fault_s, count=faults)
        self.sp_append.record(append_s, count=sealed)
        self.sp_segment.record(total)
        self.c_segments.inc()
        self.c_chunks.inc(outcome.n_chunks)
        self.c_logical.inc(outcome.nbytes)
        self.c_new.inc(outcome.written_new)
        self.c_removed.inc(outcome.removed_dup)
        self.c_rewritten.inc(outcome.rewritten_dup)
        self.c_index_lookups.inc(i.lookups - l0)
        self.c_index_faults.inc(faults)
        if self.bloom is not None:
            self.c_bloom_added.inc(self.bloom.n_added - b0)
        units = 0
        hits = 0
        now = self.clock.now
        if c0 is not None:
            c = self.cache_stats
            lookups = c.lookups - c0[0]
            hits = c.hits - c0[1]
            units = c.units_inserted - c0[2]
            self.c_cache_lookups.inc(lookups)
            self.c_cache_hits.inc(hits)
            self.c_prefetch_units.inc(units)
            self.c_evictions.inc(c.units_evicted - c0[3])
            self.sp_prefetch.record(prefetch_s, count=units)
            if units:
                self.h_yield.observe(hits / units)
            if lookups:
                self.ts_hit_ratio.sample(now, hits / lookups)
        else:
            self.sp_prefetch.record(prefetch_s)
        seg_lookups = i.lookups - l0
        if seg_lookups:
            self.ts_fault_rate.sample(now, faults / seg_lookups)
        self.h_seg_seconds.observe(total)
        if outcome.nbytes:
            self.h_dup_frac.observe(
                (outcome.removed_dup + outcome.rewritten_dup) / outcome.nbytes
            )
        if self.events.enabled:
            self.events.emit(
                "segment_span",
                engine=self.prefix,
                generation=generation,
                t=now,
                segment=outcome.index,
                n_chunks=outcome.n_chunks,
                nbytes=outcome.nbytes,
                sim_seconds=total,
                cpu_s=cpu_s,
                index_fault_s=fault_s,
                meta_prefetch_s=prefetch_s,
                container_append_s=append_s,
                index_faults=faults,
                prefetch_units=units,
                cache_hits=hits,
            )

    # -- per-backup ------------------------------------------------------

    def record_backup(self, report) -> None:
        """Per-backup rollup: generation-boundary time-series samples
        plus lifecycle events. Called only when the session is enabled;
        every read is from finished report/meter state, so recording can
        never perturb the run."""
        now = self.clock.now
        stored = report.stored_bytes
        if stored:
            self.ts_dedup_ratio.sample(now, report.logical_bytes / stored)
        if report.logical_bytes:
            self.ts_rewrite_frac.sample(
                now, report.rewritten_dup_bytes / report.logical_bytes
            )
        self.ts_frag.sample(now, _fragments_per_mib(report.recipe))
        self.ts_occupancy.sample(now, self.store_stats.physical_bytes / _MIB)
        self.ts_throughput.sample(now, report.throughput / _MIB)
        if self.events.enabled:
            extras = report.extras
            units = extras.get("prefetches", extras.get("block_fetches"))
            if units is not None:
                self.events.emit(
                    "prefetch_yield",
                    engine=self.prefix,
                    generation=report.generation,
                    t=now,
                    prefetch_units=units,
                    cache_hits=extras.get("cache_hits", 0.0),
                    hits_per_prefetch=extras.get("hits_per_prefetch", 0.0),
                )
            self.events.emit(
                "backup",
                engine=self.prefix,
                generation=report.generation,
                t=now,
                label=report.label,
                logical_bytes=report.logical_bytes,
                stored_bytes=report.stored_bytes,
                sim_seconds=report.elapsed_seconds,
                throughput=report.throughput,
            )
