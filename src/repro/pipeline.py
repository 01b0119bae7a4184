"""End-to-end pipeline: replay -> monitor -> online analysis.

This wires the substrates together exactly as the paper's evaluation does
(Fig. 3 and Section IV-A): a trace is replayed against a device model, the
monitor consumes the block-layer issue events, feeds measured latencies to
the dynamic transaction window, groups events into transactions, and hands
them simultaneously to the online analyzer and -- optionally -- to a
recorder whose stored transactions drive offline FIM for ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Union

from .blkdev.device import SimulatedDevice, SsdDevice
from .blkdev.replay import ReplayResult, replay_timed
from .cache.loop import CacheDriver
from .cache.prefetcher import SynopsisPrefetcher
from .cache.simcache import SimulatedBlockCache
from .cache.stats import CacheStats
from .core.analyzer import OnlineAnalyzer
from .core.config import AnalyzerConfig
from .core.extent import ExtentPair
from .engine import build_engine
from .monitor.batch import EventBatch, TransactionBatch
from .monitor.monitor import (
    DEFAULT_MAX_TRANSACTION_SIZE,
    GroupingMode,
    Monitor,
    MonitorStats,
    TransactionRecorder,
)
from .monitor.window import DynamicLatencyWindow, WindowPolicy
from .telemetry.metrics import MetricsRegistry
from .trace.record import TraceRecord


@dataclass
class PipelineResult:
    """Everything one end-to-end run produces.

    ``analyzer`` is whichever synopsis engine the run used: a typed
    :class:`OnlineAnalyzer` or a sharded engine (see
    :func:`~repro.engine.build_engine`) -- both answer
    ``frequent_pairs`` / ``pair_frequencies`` / ``report()``.
    """

    replay: ReplayResult
    monitor_stats: MonitorStats
    analyzer: object
    recorder: Optional[TransactionRecorder]
    registry: Optional[MetricsRegistry] = None
    #: The monitor the run used.  Kept on the result so its telemetry
    #: collector (weakly held by the registry) stays alive for post-run
    #: export.
    monitor: Optional[Monitor] = None
    #: The simulated prefetching cache, when the run attached one
    #: (``cache=`` knob); its driver ran ahead of the analyzer on every
    #: transaction, so hit ratios reflect strictly-causal prefetching.
    cache: Optional[SimulatedBlockCache] = None

    def frequent_pairs(self, min_support: int = 2):
        """Detected correlations, strongest first."""
        return self.analyzer.frequent_pairs(min_support)

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss/prefetch counters of the attached cache."""
        if self.cache is None:
            raise ValueError("pipeline ran without cache=")
        return self.cache.stats

    def offline_transactions(self) -> List[List]:
        """Recorded transactions as extent lists (offline FIM input)."""
        if self.recorder is None:
            raise ValueError("pipeline ran without offline recording")
        return self.recorder.extent_transactions()

    def release(self) -> None:
        """Shut down a process-backed engine's shard worker fleet.

        A run with ``parallel="process"`` leaves live worker processes
        behind the returned analyzer; call this once the result has been
        queried.  A no-op for in-process engines.
        """
        close = getattr(self.analyzer, "close", None)
        if close is not None:
            close()


class _EventBatcher:
    """Buffers replay listener callbacks into ``Monitor.on_events`` batches.

    With ``columnar=True`` each flushed batch is first converted to an
    :class:`EventBatch` so the monitor takes its vectorized lane; a batch
    numpy cannot represent (e.g. an offset beyond int64) falls back to
    the object list for that flush only.
    """

    def __init__(self, monitor: Monitor, batch_size: int,
                 columnar: bool = True) -> None:
        self._monitor = monitor
        self._batch_size = batch_size
        self._columnar = columnar
        self._buffer: List = []

    def add(self, event) -> None:
        buffer = self._buffer
        buffer.append(event)
        if len(buffer) >= self._batch_size:
            self._flush()

    def drain(self) -> None:
        if self._buffer:
            self._flush()

    def _flush(self) -> None:
        buffer = self._buffer
        batch = buffer
        if self._columnar:
            try:
                batch = EventBatch.from_events(buffer)
            except (OverflowError, ValueError, TypeError):
                pass
        self._monitor.on_events(batch)
        buffer.clear()


class _AnalyzerSink:
    """Monitor sink feeding a batch-capable synopsis engine.

    Scalar deliveries (per-event ingest, window flushes) arrive via
    ``__call__``; the monitor's columnar lane hands a whole
    :class:`TransactionBatch` to :meth:`on_transaction_batch`.
    """

    __slots__ = ("_analyzer", "_parallel")

    def __init__(self, analyzer, parallel: bool) -> None:
        self._analyzer = analyzer
        self._parallel = parallel

    def __call__(self, transaction) -> None:
        process = getattr(self._analyzer, "process_transaction", None)
        if process is not None:
            process(transaction)
        else:  # batch-only engine (process-backed shards)
            self._analyzer.process_transaction_batch(
                TransactionBatch.from_transactions([transaction])
            )

    def on_transaction_batch(self, batch) -> None:
        self._analyzer.process_transaction_batch(
            batch, parallel=self._parallel
        )


class _CacheSink:
    """Monitor sink serving the prefetching cache.

    Registered *before* the analyzer sink, so on every transaction the
    cache serves (and prefetches) off what the synopsis learned from
    strictly earlier traffic -- the closed loop stays causal even though
    both ride the same monitor.
    """

    __slots__ = ("_driver",)

    def __init__(self, driver: CacheDriver) -> None:
        self._driver = driver

    def __call__(self, transaction) -> None:
        self._driver.on_transaction(transaction.extents)

    def on_transaction_batch(self, batch) -> None:
        on_transaction = self._driver.on_transaction
        for transaction in batch.transactions():
            on_transaction(transaction.extents)


def run_pipeline(
    records: Sequence[TraceRecord],
    device: Optional[SimulatedDevice] = None,
    config: Optional[AnalyzerConfig] = None,
    window: Optional[WindowPolicy] = None,
    speedup: float = 1.0,
    record_offline: bool = True,
    max_transaction_size: int = DEFAULT_MAX_TRANSACTION_SIZE,
    dedup: bool = True,
    pid_filter: Optional[Set[int]] = None,
    grouping: GroupingMode = GroupingMode.GAP,
    collect_events: bool = False,
    analyzer: Optional[OnlineAnalyzer] = None,
    shards: int = 1,
    batch_size: Optional[int] = None,
    parallel: Optional[str] = None,
    columnar: bool = True,
    registry: Optional[MetricsRegistry] = None,
    cache: Optional[Union[int, SimulatedBlockCache]] = None,
    cache_policy: str = "lru",
    prefetch: bool = True,
) -> PipelineResult:
    """Replay ``records`` through the full monitoring/analysis stack.

    Defaults reproduce the paper's configuration: an SSD replay device, a
    dynamic window of twice the average measured latency, transactions
    capped at 8 deduplicated requests, and dual online + offline output.
    Set ``collect_events`` to keep every issue event in the result (memory
    proportional to the trace; off by default).

    The engine comes from :func:`~repro.engine.build_engine`: a single
    typed analyzer by default, and with ``shards > 1`` a hash-partitioned
    :class:`~repro.engine.backends.host.BackendEngine` (N shard synopses
    at ``capacity / N`` each).  ``batch_size``
    buffers that many issue events and feeds them through the monitor's
    amortized batch path (:meth:`Monitor.on_events`) instead of one call
    per event -- results are identical, ingest is faster.  ``columnar``
    (on by default) converts each such batch to an
    :class:`~repro.monitor.batch.EventBatch` so the monitor's vectorized
    lane cuts transactions in bulk and the engine consumes
    :class:`~repro.monitor.batch.TransactionBatch` columns.

    ``parallel`` selects how a sharded engine processes those batches:
    ``"thread"`` runs one worker thread per shard, ``"process"`` backs
    the run with a
    :class:`~repro.engine.procshard.ProcessShardedAnalyzer` -- one worker
    *process* per shard, sidestepping the GIL (call
    :meth:`PipelineResult.release` when done with the result).  ``None``
    processes shards sequentially.

    A pre-built ``analyzer`` may be injected (e.g. a plain
    :class:`OnlineAnalyzer`, or an engine carried over from a previous run
    for continuous operation); analyzers exposing ``process_transaction``
    receive the full transaction, others receive the extent list.

    ``registry`` selects the telemetry registry the monitor and any
    internally constructed analyzer publish to (``None``: the
    process-local default).  The registry used is returned on
    :attr:`PipelineResult.registry` so callers can export after the run
    (see :mod:`repro.telemetry.export`).

    ``cache`` attaches a correlation-prefetching block cache to the run
    (a capacity in blocks, or a ready
    :class:`~repro.cache.simcache.SimulatedBlockCache`): every
    transaction's extents are served through it *before* the analyzer
    trains, and the synopsis prefetcher pulls in each access's detected
    partners (disable with ``prefetch=False`` for a no-prefetch
    baseline).  ``cache_policy`` picks the eviction policy when a
    capacity is given.  The cache is returned on
    :attr:`PipelineResult.cache`.
    """
    if device is None:
        device = SsdDevice()
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if batch_size is not None and batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if parallel not in (None, "thread", "process"):
        raise ValueError(
            f"parallel must be None, 'thread' or 'process', got {parallel!r}"
        )
    if analyzer is None:
        analyzer = build_engine(config, shards=shards,
                                processes=parallel == "process",
                                registry=registry)
    elif config is not None:
        raise ValueError("pass either a config or a pre-built analyzer")
    monitor = Monitor(
        window=window if window is not None else DynamicLatencyWindow(),
        max_transaction_size=max_transaction_size,
        dedup=dedup,
        pid_filter=pid_filter,
        grouping=grouping,
        registry=registry,
    )
    recorder = TransactionRecorder() if record_offline else None
    if cache is not None:
        if isinstance(cache, int):
            cache = SimulatedBlockCache(cache, policy=cache_policy,
                                        registry=registry)
        prefetcher = SynopsisPrefetcher(analyzer) if prefetch else None
        monitor.add_sink(_CacheSink(CacheDriver(cache, prefetcher)))
    if hasattr(analyzer, "process_transaction_batch"):
        monitor.add_sink(_AnalyzerSink(analyzer, parallel is not None))
    elif hasattr(analyzer, "process_transaction"):
        monitor.add_sink(analyzer.process_transaction)
    else:
        monitor.add_sink(
            lambda transaction: analyzer.process(transaction.extents)
        )
    if recorder is not None:
        monitor.add_sink(recorder)

    if batch_size is not None and batch_size > 1:
        batcher = _EventBatcher(monitor, batch_size, columnar=columnar)
        listener = batcher.add
    else:
        batcher = None
        listener = monitor.on_event

    replay = replay_timed(
        records,
        device,
        speedup=speedup,
        listeners=[listener],
        collect=collect_events,
    )
    if batcher is not None:
        batcher.drain()
    monitor.flush()

    return PipelineResult(
        replay=replay,
        monitor_stats=monitor.stats,
        analyzer=analyzer,
        recorder=recorder,
        registry=monitor.registry,
        monitor=monitor,
        cache=cache,
    )


def characterize(
    records: Sequence[TraceRecord],
    min_support: int = 2,
    config: Optional[AnalyzerConfig] = None,
    **pipeline_kwargs,
) -> List:
    """One-call characterization: replay a trace, return frequent pairs.

    This is the quickstart entry point: given any trace, it returns the
    detected extent correlations as ``(ExtentPair, tally)`` tuples,
    strongest first.
    """
    result = run_pipeline(
        records, config=config, record_offline=False, **pipeline_kwargs
    )
    try:
        return result.frequent_pairs(min_support)
    finally:
        # One-call convenience: nothing else will query the engine, so a
        # process-backed run must not leak its worker fleet.
        result.release()
