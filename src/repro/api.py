"""``repro.api`` — the stable public facade.

One import point for embedding the reproduction as a library:

* :func:`create_engine` — build any registered engine by display name
  from an :class:`~repro.experiments.config.ExperimentConfig` (engines
  self-register via :func:`register_engine`; the ladder of constructor
  keywords lives next to each engine, not in a central if/elif chain).
* :func:`create_resources` — a fresh disk/store/index substrate wired
  per the config, honoring its :class:`~repro.storage.store.StoreConfig`
  (durability journal, retry policy) when one is set.
* :class:`BackupSession` — a context manager bundling engine, container
  store, and restore reader for the common ingest-then-restore loop,
  including the out-of-line maintenance phase
  (:meth:`BackupSession.end_generation`).

The registry is capability-aware: each registration carries an
:class:`EngineInfo` (does the engine run an out-of-line maintenance
pass? does it rewrite *old* containers?) that the CLI, ``repro dash``,
and the frontier experiment read via :func:`engine_info` /
:func:`engine_infos`.

Everything here is re-exported from :mod:`repro`.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dedup.base import (
        BackupReport,
        DedupEngine,
        EngineResources,
        MaintenanceReport,
    )
    from repro.dedup.pipeline import GroundTruth
    from repro.experiments.config import ExperimentConfig
    from repro.restore.reader import RestoreReader, RestoreReport
    from repro.segmenting.segmenter import Segmenter
    from repro.storage.disk import DiskModel
    from repro.storage.recipe import BackupRecipe
    from repro.workloads.generators import BackupJob

__all__ = [
    "EngineInfo",
    "register_engine",
    "engine_names",
    "engine_info",
    "engine_infos",
    "create_resources",
    "create_engine",
    "create_reader",
    "BackupSession",
]

#: factory signature: (resources, config) -> engine
EngineFactory = Callable[["EngineResources", "ExperimentConfig"], "DedupEngine"]


@dataclass(frozen=True)
class EngineInfo:
    """Registry-level capability record for one engine.

    Attributes:
        name: display name (the registry key).
        supports_maintenance: the engine does real work in its
            out-of-line :meth:`~repro.dedup.base.DedupEngine
            .maintenance` pass (drivers should call ``end_generation``
            between backups to see its true behavior).
        rewrites_old_containers: maintenance rewrites/retires *old*
            containers (RevDedup's reverse-reference policy) rather
            than only compacting fresh garbage.
        doc: one-line placement-policy summary for the CLI and
            dashboard.
    """

    name: str
    supports_maintenance: bool = False
    rewrites_old_containers: bool = False
    doc: str = ""


_REGISTRY: Dict[str, EngineFactory] = {}
_INFO: Dict[str, EngineInfo] = {}

#: built-in engines self-register when their module is imported; this
#: map lets :func:`create_engine` trigger that import lazily, so using
#: one engine never pays for importing the other seven
_BUILTIN_MODULES: Dict[str, str] = {
    "DeFrag": "repro.core.defrag",
    "DDFS-Like": "repro.dedup.ddfs",
    "SiLo-Like": "repro.dedup.silo",
    "Exact": "repro.dedup.exact",
    "iDedup": "repro.dedup.idedup",
    "SparseIndex": "repro.dedup.sparse",
    "RevDedup": "repro.dedup.revdedup",
    "Hybrid": "repro.dedup.hybrid",
}


def register_engine(
    name: str,
    factory: Optional[EngineFactory] = None,
    *,
    supports_maintenance: bool = False,
    rewrites_old_containers: bool = False,
    doc: str = "",
):
    """Register an engine factory under a display name.

    Usable directly (``register_engine("Mine", build_mine)``) or as a
    decorator::

        @register_engine("Mine", doc="my placement policy")
        def build_mine(resources, config):
            return MyEngine(resources)

    Re-registering a name replaces the factory (latest wins), so tests
    and downstream packages can shadow a built-in. The keyword flags
    populate the :class:`EngineInfo` capability record readable via
    :func:`engine_info`; ``doc`` falls back to the factory docstring's
    first line.
    """

    def _store(f: EngineFactory) -> EngineFactory:
        _REGISTRY[name] = f
        line = doc or ((f.__doc__ or "").strip().splitlines() or [""])[0]
        _INFO[name] = EngineInfo(
            name=name,
            supports_maintenance=supports_maintenance,
            rewrites_old_containers=rewrites_old_containers,
            doc=line,
        )
        return f

    if factory is None:
        return _store
    return _store(factory)


def engine_names() -> Tuple[str, ...]:
    """Every registerable engine name (built-ins plus registrations)."""
    return tuple(sorted(set(_BUILTIN_MODULES) | set(_REGISTRY)))


def engine_info(name: str) -> EngineInfo:
    """The capability record for one engine (imports a built-in's module
    if needed; raises ``ValueError`` for unknown names)."""
    _factory_for(name)
    # a factory stuffed straight into _REGISTRY (tests) has no record
    return _INFO.get(name, EngineInfo(name=name))


def engine_infos() -> Tuple[EngineInfo, ...]:
    """Capability records for every known engine, sorted by name."""
    return tuple(engine_info(name) for name in engine_names())


def _factory_for(name: str) -> EngineFactory:
    factory = _REGISTRY.get(name)
    if factory is None and name in _BUILTIN_MODULES:
        module = _BUILTIN_MODULES[name]
        importlib.import_module(module)
        factory = _REGISTRY.get(name)
        if factory is None:
            # the builtin map and the registry disagree: the module
            # imported fine but never registered under this name — a
            # packaging bug, not a caller typo, so say so explicitly
            raise ValueError(
                f"builtin engine {name!r}: module {module!r} imported but "
                f"registered no factory under that name"
            )
    if factory is None:
        registered = ", ".join(sorted(_REGISTRY)) or "(none)"
        builtin = ", ".join(sorted(_BUILTIN_MODULES))
        raise ValueError(
            f"unknown engine {name!r}; registered: {registered}; "
            f"builtin: {builtin}"
        )
    return factory


def create_resources(
    config: "Optional[ExperimentConfig]" = None,
    *,
    disk: "Optional[DiskModel]" = None,
) -> "EngineResources":
    """A fresh disk/store/index substrate wired per the config.

    The store inherits ``config.store`` (a
    :class:`~repro.storage.store.StoreConfig`) when set — that is how
    the durability journal and retry policy reach the stack. When unset,
    the experiment convention applies: the container log is append-only,
    so seals are pure sequential transfer (``seal_seeks=0``) and the
    restore reader's cache is ``config.restore_cache_containers``.

    A ``config.shard`` (:class:`~repro.sharding.config.ShardConfig`)
    swaps the single on-disk index for a
    :class:`~repro.sharding.ShardedChunkIndex` over the same disk —
    behind the identical interface, so every engine runs unchanged
    (with ``n_shards=1`` the wrapper delegates verbatim and results
    stay byte-identical to the unsharded substrate).

    Args:
        config: experiment knobs (defaults to
            ``ExperimentConfig.default()``).
        disk: substitute a pre-built disk, e.g. a
            :class:`~repro.faults.FaultyDisk` (overrides
            ``config.disk``).
    """
    from repro.dedup.base import EngineResources
    from repro.experiments.config import ExperimentConfig
    from repro.storage.store import StoreConfig

    if config is None:
        config = ExperimentConfig.default()
    store_config = config.store
    if store_config is None:
        store_config = StoreConfig(
            container_bytes=config.container_bytes,
            seal_seeks=0,
            cache_containers=config.restore_cache_containers,
        )
    resources = EngineResources.create(
        profile=config.disk,
        expected_entries=config.bloom_capacity,
        index_page_cache_pages=config.index_page_cache_pages,
        store_config=store_config,
        disk=disk,
    )
    shard = getattr(config, "shard", None)
    if shard is not None:
        from repro.sharding import ShardedChunkIndex

        sharded = ShardedChunkIndex.create(
            resources.disk,
            n_shards=shard.n_shards,
            expected_entries=config.bloom_capacity,
            page_cache_pages=config.index_page_cache_pages,
            journaled=store_config.journal,
            retry=store_config.retry,
            vnodes=shard.vnodes,
        )
        resources = EngineResources(
            disk=resources.disk,
            store=resources.store,
            index=sharded,  # type: ignore[arg-type]
        )
    return resources


def create_engine(
    name: str,
    config: "Optional[ExperimentConfig]" = None,
    resources: "Optional[EngineResources]" = None,
) -> "DedupEngine":
    """Construct an engine by display name with the config's calibrated
    parameters (a fresh resource set is created unless one is passed)."""
    from repro.experiments.config import ExperimentConfig

    if config is None:
        config = ExperimentConfig.default()
    res = resources if resources is not None else create_resources(config)
    return _factory_for(name)(res, config)


def create_reader(
    store,
    config: "Optional[ExperimentConfig]" = None,
) -> "RestoreReader":
    """Build a :class:`~repro.restore.reader.RestoreReader` wired per the
    config's restore knobs (cache policy, forward-assembly window,
    read-ahead). With a default config this is exactly the classic LRU
    run-at-a-time reader the recorded figures used."""
    from repro.experiments.config import ExperimentConfig
    from repro.restore.reader import RestoreReader

    if config is None:
        config = ExperimentConfig.default()
    return RestoreReader(
        store,
        policy=config.restore_policy,
        faa_window=config.restore_faa_window,
        readahead=config.restore_readahead,
    )


class BackupSession:
    """One backup system's lifetime: engine + store + restore reader.

    The session owns a resource set and drives the ingest/restore loop::

        with BackupSession("DeFrag") as session:
            for job in author_fs_20_full():
                session.backup(job)
            report = session.restore()   # the latest backup

    Args:
        engine: display name (resolved via :func:`create_engine`) or an
            already-built :class:`~repro.dedup.base.DedupEngine`.
        config: experiment knobs (defaults to
            ``ExperimentConfig.default()``); carries the
            :class:`~repro.storage.store.StoreConfig` when durability
            matters.
        resources: substitute a pre-built substrate (e.g. one whose
            disk is a :class:`~repro.faults.FaultyDisk`).
        segmenter: defaults to the paper's 0.5–2 MB content-defined
            segmenter.
        ground_truth: annotate reports with the exact redundancy oracle
            (adds RAM/CPU proportional to unique fingerprints).
    """

    def __init__(
        self,
        engine: "Union[str, DedupEngine]" = "DeFrag",
        config: "Optional[ExperimentConfig]" = None,
        resources: "Optional[EngineResources]" = None,
        *,
        segmenter: "Optional[Segmenter]" = None,
        ground_truth: bool = True,
    ) -> None:
        from repro.dedup.pipeline import GroundTruth
        from repro.experiments.config import ExperimentConfig
        from repro.segmenting.segmenter import ContentDefinedSegmenter

        if config is None:
            config = ExperimentConfig.default()
        self.config = config
        if isinstance(engine, str):
            if resources is None:
                resources = create_resources(config)
            engine = create_engine(engine, config, resources)
        elif resources is None:
            resources = engine.res
        self.engine = engine
        self.resources = resources
        self.segmenter = (
            segmenter if segmenter is not None else ContentDefinedSegmenter()
        )
        self._ground_truth: "Optional[GroundTruth]" = (
            GroundTruth() if ground_truth else None
        )
        self.reports: "List[BackupReport]" = []
        self.maintenance_reports: "List[MaintenanceReport]" = []
        self._reader: "Optional[RestoreReader]" = None

    # -- the bundled components ----------------------------------------

    @property
    def store(self):
        """The shared container store."""
        return self.resources.store

    @property
    def index(self):
        """The shared on-disk chunk index."""
        return self.resources.index

    @property
    def disk(self):
        """The simulated disk all costs are charged to."""
        return self.resources.disk

    @property
    def reader(self) -> "RestoreReader":
        """The restore reader (cache sized from the store's config,
        policy/FAA/read-ahead wired from the session's experiment
        config)."""
        if self._reader is None:
            self._reader = create_reader(self.store, self.config)
        return self._reader

    @property
    def recipes(self) -> "List[BackupRecipe]":
        """One recipe per completed backup, in ingest order."""
        return [r.recipe for r in self.reports]

    # -- lifecycle ------------------------------------------------------

    def __enter__(self) -> "BackupSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # engine.end_backup already sealed/flushed per stream; nothing
        # is held open between backups, so exit is bookkeeping only
        return None

    def backup(self, job: "BackupJob") -> "BackupReport":
        """Ingest one backup job; the report is also kept in
        :attr:`reports`."""
        from repro.dedup.pipeline import run_backup

        report = run_backup(self.engine, job, self.segmenter, self._ground_truth)
        self.reports.append(report)
        return report

    def run(self, jobs: "Sequence[BackupJob]") -> "List[BackupReport]":
        """Ingest a sequence of jobs; returns their reports in order.

        Engines whose registry record has ``supports_maintenance`` get
        their out-of-line pass driven after every job, so a session
        ``run`` shows each policy's true lifecycle by default."""
        try:
            drive = engine_info(self.engine.name).supports_maintenance
        except ValueError:  # unregistered custom engine instance
            drive = False
        reports = []
        for job in jobs:
            reports.append(self.backup(job))
            if drive:
                self.end_generation()
        return reports

    def maintenance(self) -> "Optional[MaintenanceReport]":
        """Run the engine's out-of-line maintenance pass over every
        completed backup; alias of :meth:`end_generation`."""
        return self.end_generation()

    def end_generation(self) -> "Optional[MaintenanceReport]":
        """Close the current generation: drive the engine's
        :meth:`~repro.dedup.base.DedupEngine.end_generation` over all
        completed recipes and fold the remapped recipes back into
        :attr:`reports` (so later :meth:`restore` calls read the
        post-maintenance layout). No-op engines return ``None`` and
        leave every recipe untouched."""
        report, remapped = self.engine.end_generation(self.recipes)
        for backup_report, recipe in zip(self.reports, remapped):
            backup_report.recipe = recipe
        if report is not None:
            self.maintenance_reports.append(report)
        return report

    def restore(
        self, backup: "Union[int, BackupRecipe]" = -1
    ) -> "RestoreReport":
        """Restore a completed backup.

        Args:
            backup: an index into :attr:`reports` (default: the latest)
                or an explicit recipe.
        """
        if isinstance(backup, int):
            if not self.reports:
                raise RuntimeError("no completed backups to restore")
            recipe = self.reports[backup].recipe
        else:
            recipe = backup
        return self.reader.restore(recipe)
