"""repro — reproduction of "Reducing The De-linearization of Data
Placement to Improve Deduplication Performance" (Tan, Yan, Feng, Sha;
SC 2012).

Quickstart::

    from repro import (
        DeFragEngine, DDFSEngine, EngineResources,
        ContentDefinedSegmenter, run_workload, author_fs_20_full,
    )

    segmenter = ContentDefinedSegmenter()
    engine = DeFragEngine(EngineResources.create())
    reports = run_workload(engine, author_fs_20_full(), segmenter)
    for r in reports:
        print(r.summary())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure.
"""

from repro.api import (
    BackupSession,
    EngineInfo,
    create_engine,
    create_resources,
    engine_info,
    engine_infos,
    engine_names,
    register_engine,
)
from repro.chunking import (
    Chunk,
    ChunkStream,
    FixedChunker,
    GearChunker,
)
from repro.core import (
    AlwaysRewritePolicy,
    CappingPolicy,
    DeFragEngine,
    NeverRewritePolicy,
    RewritePolicy,
    SPLProfile,
    SPLThresholdPolicy,
    spl_profile,
)
from repro.dedup import (
    BackupReport,
    CostModel,
    DDFSEngine,
    DedupEngine,
    EngineResources,
    ExactEngine,
    GroundTruth,
    HybridEngine,
    IDedupEngine,
    MaintenanceReport,
    RevDedupEngine,
    SiLoEngine,
    SparseIndexEngine,
    ingest_bytes,
    run_backup,
    run_workload,
    run_workload_with_maintenance,
)
from repro.restore import RestoreReader, RestoreReport, read_time_eq1
from repro.segmenting import ContentDefinedSegmenter, FixedSegmenter, Segment
from repro.storage import (
    BackupRecipe,
    ContainerStore,
    DiskModel,
    DiskProfile,
    GarbageCollector,
    GCReport,
    HDD_2012,
    LayoutReport,
    NEARLINE_HDD,
    RecoveryReport,
    RecoveryScanner,
    SSD_SATA,
    StoreConfig,
    analyze_recipe,
)
from repro.workloads import (
    BackupJob,
    ChurnProfile,
    FileSystemModel,
    author_fs_20_full,
    group_fs_66,
    single_user_stream,
)

__version__ = "1.0.0"

__all__ = [
    "BackupSession",
    "EngineInfo",
    "create_engine",
    "create_resources",
    "engine_info",
    "engine_infos",
    "engine_names",
    "register_engine",
    "Chunk",
    "ChunkStream",
    "FixedChunker",
    "GearChunker",
    "AlwaysRewritePolicy",
    "CappingPolicy",
    "DeFragEngine",
    "NeverRewritePolicy",
    "RewritePolicy",
    "SPLProfile",
    "SPLThresholdPolicy",
    "spl_profile",
    "BackupReport",
    "CostModel",
    "DDFSEngine",
    "DedupEngine",
    "EngineResources",
    "ExactEngine",
    "GroundTruth",
    "HybridEngine",
    "IDedupEngine",
    "MaintenanceReport",
    "RevDedupEngine",
    "SiLoEngine",
    "SparseIndexEngine",
    "ingest_bytes",
    "run_backup",
    "run_workload",
    "run_workload_with_maintenance",
    "RestoreReader",
    "RestoreReport",
    "read_time_eq1",
    "ContentDefinedSegmenter",
    "FixedSegmenter",
    "Segment",
    "BackupRecipe",
    "ContainerStore",
    "DiskModel",
    "DiskProfile",
    "GarbageCollector",
    "GCReport",
    "HDD_2012",
    "NEARLINE_HDD",
    "SSD_SATA",
    "StoreConfig",
    "RecoveryReport",
    "RecoveryScanner",
    "LayoutReport",
    "analyze_recipe",
    "BackupJob",
    "ChurnProfile",
    "FileSystemModel",
    "author_fs_20_full",
    "group_fs_66",
    "single_user_stream",
    "__version__",
]
