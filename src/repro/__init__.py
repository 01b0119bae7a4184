"""repro -- Real-Time Characterization of Data Access Correlations.

A from-scratch reproduction of the ISPASS 2021 paper by Harris, Marzullo,
and Altiparmak: an online framework that watches block-layer I/O, groups
requests into transactions, and maintains a bounded-memory two-tier synopsis
of frequently correlated extents -- plus the substrates (trace model, device
simulation, workload generators) and baselines (offline and stream FIM)
needed to regenerate every table and figure of the paper's evaluation.

Quickstart::

    from repro import characterize
    from repro.workloads import SyntheticSpec, SyntheticKind, generate_synthetic

    records, truth = generate_synthetic(SyntheticSpec(SyntheticKind.ONE_TO_MANY))
    for pair, tally in characterize(records, min_support=5)[:10]:
        print(pair, tally)
"""

from .cache import (
    CachedCharacterizationService,
    SimulatedBlockCache,
    SynopsisPrefetcher,
)
from .core import (
    AnalyzerConfig,
    AnalyzerReport,
    CorrelationTable,
    Extent,
    ExtentPair,
    ItemTable,
    OnlineAnalyzer,
    SynopsisMemoryModel,
    TwoTierTable,
)
from .core.serialize import CheckpointCorruptError
from .engine import (
    BackendEngine,
    build_engine,
    dump_engine,
    load_engine,
)
from .monitor import (
    BlockIOEvent,
    ClockPolicy,
    DynamicLatencyWindow,
    Monitor,
    StaticWindow,
    Transaction,
    TransactionRecorder,
)
from .pipeline import PipelineResult, characterize, run_pipeline
from .resilience import (
    FaultInjector,
    FaultSpec,
    ResilientCharacterizationService,
    ServiceHealth,
    SinkGuard,
)
from .service import CharacterizationService, ServiceSnapshot
from .telemetry import (
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
    SnapshotEmitter,
    StageTimer,
    get_default_registry,
    render_digest,
    render_json,
    render_prometheus,
    set_default_registry,
    snapshot,
    snapshot_value,
)
from .trace import ErrorPolicy, IngestReport, OpType, TraceRecord

__version__ = "1.0.0"

__all__ = [
    "AnalyzerConfig",
    "AnalyzerReport",
    "BackendEngine",
    "BlockIOEvent",
    "CachedCharacterizationService",
    "CheckpointCorruptError",
    "ClockPolicy",
    "CorrelationTable",
    "DynamicLatencyWindow",
    "ErrorPolicy",
    "FaultInjector",
    "FaultSpec",
    "IngestReport",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "ResilientCharacterizationService",
    "ServiceHealth",
    "SimulatedBlockCache",
    "SinkGuard",
    "SynopsisPrefetcher",
    "build_engine",
    "dump_engine",
    "load_engine",
    "Extent",
    "ExtentPair",
    "ItemTable",
    "Monitor",
    "OnlineAnalyzer",
    "OpType",
    "PipelineResult",
    "SnapshotEmitter",
    "StageTimer",
    "StaticWindow",
    "SynopsisMemoryModel",
    "TraceRecord",
    "CharacterizationService",
    "ServiceSnapshot",
    "Transaction",
    "TransactionRecorder",
    "TwoTierTable",
    "characterize",
    "get_default_registry",
    "render_digest",
    "render_json",
    "render_prometheus",
    "run_pipeline",
    "set_default_registry",
    "snapshot",
    "snapshot_value",
    "__version__",
]
