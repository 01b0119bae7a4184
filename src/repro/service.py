"""A continuous characterization service.

The pipeline in :mod:`repro.pipeline` is batch-shaped: replay a trace, get
a result.  A deployed system (Fig. 3) instead runs *forever*: events arrive
as the kernel emits them, consumers ask for the current picture whenever
they like, and the learned state must survive restarts.  This module wraps
monitor + synopsis engine into that service shape:

* :meth:`CharacterizationService.submit` accepts block I/O events
  (from blktrace, a replayer, or tests) and drives the whole stack;
  :meth:`submit_many` is the batched form -- an
  :class:`~repro.monitor.batch.EventBatch` (or any event list past
  ``columnar_threshold``, converted automatically) flows through the
  monitor's vectorized columnar lane and finished transactions reach the
  engine as :class:`~repro.monitor.batch.TransactionBatch` columns;
  smaller lists keep the amortized object path;
* :func:`repro.engine.build_engine` picks the synopsis engine: a single
  typed analyzer, or with ``shards > 1`` (or a sketch backend) a
  :class:`~repro.engine.backends.host.BackendEngine` -- same queries,
  hash-partitioned tables; ``shard_processes`` upgrades that to a
  :class:`~repro.engine.procshard.ProcessShardedAnalyzer` (one worker
  *process* per shard, sidestepping the GIL) -- call
  :meth:`~CharacterizationService.release` when done with the service so
  the worker fleet shuts down cleanly;
* :meth:`snapshot` returns the current frequent correlations (optionally
  by R/W kind) without stopping ingestion;
* :meth:`checkpoint` / :meth:`restore` persist the synopsis -- format v2
  for a single analyzer, format v4 (per-shard CRC envelopes) for a
  sharded engine (see :mod:`repro.core.serialize` and
  :mod:`repro.engine.checkpoint`);
* registered observers are notified every ``snapshot_interval``
  transactions -- the hook an automatic optimization module attaches to;
* the whole stack publishes telemetry through one injectable
  :class:`~repro.telemetry.metrics.MetricsRegistry` (``registry=``):
  monitor and synopsis counters via collectors, submit/batch latency
  histograms, and per-stage spans (see ``docs/observability.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    BinaryIO,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from .core.config import AnalyzerConfig
from .core.extent import ExtentPair
from .core.typed import CorrelationKind, TypedOnlineAnalyzer
from .engine import build_engine
from .engine.backends.host import BackendEngine
from .engine.checkpoint import dump_engine, load_engine
from .engine.procshard import ProcessShardedAnalyzer
from .monitor.batch import EventBatch, TransactionBatch
from .monitor.events import BlockIOEvent
from .monitor.monitor import (
    DEFAULT_MAX_TRANSACTION_SIZE,
    ClockPolicy,
    Monitor,
)
from .monitor.transaction import Transaction
from .monitor.window import DynamicLatencyWindow, WindowPolicy
from .telemetry.metrics import (
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
    get_default_registry,
)
from .telemetry.tracelog import trace_span
from .telemetry.tracing import StageTimer

SnapshotObserver = Callable[["ServiceSnapshot"], None]

#: The engine types a service may be backed by.
ServiceEngine = Union[
    TypedOnlineAnalyzer, BackendEngine, ProcessShardedAnalyzer,
]

#: Event lists at least this long are converted to a columnar
#: :class:`EventBatch` inside :meth:`CharacterizationService.submit_many`
#: (overridable per service; ``None`` disables auto-conversion).
DEFAULT_COLUMNAR_THRESHOLD = 64


class _ServiceSink:
    """The monitor sink the service registers: finished transactions
    arrive either as objects (scalar lane, via ``__call__``) or as one
    columnar :class:`TransactionBatch` (batch lane), and both routes land
    on the owning service's buffering/notify logic."""

    __slots__ = ("_service",)

    def __init__(self, service: "CharacterizationService") -> None:
        self._service = service

    def __call__(self, transaction: Transaction) -> None:
        self._service._on_transaction(transaction)

    def on_transaction_batch(self, batch: TransactionBatch) -> None:
        self._service._on_transaction_batch(batch)


@dataclass
class ServiceSnapshot:
    """The service's view of the workload at one instant."""

    transactions: int
    events: int
    frequent_pairs: List[Tuple[ExtentPair, int]]
    kind_summary: Dict[CorrelationKind, int]

    @property
    def correlations(self) -> int:
        return len(self.frequent_pairs)


class CharacterizationService:
    """Long-running ingest -> characterize -> notify loop."""

    def __init__(
        self,
        config: Optional[AnalyzerConfig] = None,
        window: Optional[WindowPolicy] = None,
        max_transaction_size: int = DEFAULT_MAX_TRANSACTION_SIZE,
        dedup: bool = True,
        min_support: int = 5,
        snapshot_interval: int = 1000,
        clock_policy: ClockPolicy = ClockPolicy.REORDER,
        max_clock_skew: Optional[float] = None,
        shards: int = 1,
        shard_processes: bool = False,
        columnar_threshold: Optional[int] = DEFAULT_COLUMNAR_THRESHOLD,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        """``shards`` selects the synopsis engine: 1 keeps the classic
        single typed analyzer; N > 1 hash-partitions the tables across N
        shard synopses at ``capacity / N`` each (see
        :func:`~repro.engine.build_engine`).  ``shard_processes`` backs
        the shards with one worker *process* each (a
        :class:`ProcessShardedAnalyzer`) -- pair it with :meth:`release`
        so the workers are shut down when the service retires.

        ``columnar_threshold`` sets the batch size at which
        :meth:`submit_many` converts an event list to a columnar
        :class:`EventBatch` before handing it to the monitor (``None``
        disables the conversion; callers can always pass an
        :class:`EventBatch` directly).

        ``registry`` selects the telemetry registry for the whole stack
        (monitor, engine, and the service's own latency histograms);
        ``None`` uses the process-local default, and
        :data:`~repro.telemetry.NULL_REGISTRY` disables telemetry with
        near-zero hot-path cost.
        """
        if snapshot_interval < 1:
            raise ValueError("snapshot_interval must be >= 1")
        if min_support < 1:
            raise ValueError("min_support must be >= 1")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if columnar_threshold is not None and columnar_threshold < 1:
            raise ValueError("columnar_threshold must be >= 1 or None")
        self.min_support = min_support
        self.snapshot_interval = snapshot_interval
        self.shards = shards
        self.shard_processes = shard_processes
        self.columnar_threshold = columnar_threshold
        registry = registry if registry is not None else \
            get_default_registry()
        self.registry = registry
        self.analyzer: ServiceEngine = build_engine(
            config, shards=shards, processes=shard_processes,
            registry=registry,
        )
        self.monitor = Monitor(
            window=window if window is not None else DynamicLatencyWindow(),
            max_transaction_size=max_transaction_size,
            dedup=dedup,
            sinks=[_ServiceSink(self)],
            clock_policy=clock_policy,
            max_clock_skew=max_clock_skew,
            registry=registry,
        )
        self._observers: List[SnapshotObserver] = []
        self._transactions = 0
        self._batch_buffer: Optional[List[Transaction]] = None
        self._txn_batches: Optional[List[TransactionBatch]] = None
        self._closed = False
        self._bind_metrics(registry)

    # -- telemetry ----------------------------------------------------------

    def _bind_metrics(self, registry: MetricsRegistry) -> None:
        self._stage_timer = StageTimer(
            registry, stages=("monitor", "analyze", "notify")
        )
        if not registry.enabled:
            self._submit_hist = None
            return
        self._submit_hist = registry.histogram(
            "repro_service_submit_latency_seconds",
            "Wall time per ingest call",
            labelnames=("path",),
        ).labels(path="event")
        self._batch_hist = registry.histogram(
            "repro_service_submit_latency_seconds",
            "Wall time per ingest call",
            labelnames=("path",),
        ).labels(path="batch")
        self._batch_size_hist = registry.histogram(
            "repro_service_batch_events",
            "Events per submit_many call",
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self._snapshots_counter = registry.counter(
            "repro_service_snapshots_total",
            "Snapshots computed (periodic notifications and queries)",
        )
        self._checkpoint_counter = registry.counter(
            "repro_service_checkpoints_total",
            "Checkpoint operations",
            labelnames=("op",),
        )
        self._transactions_counter = registry.counter(
            "repro_service_transactions_total",
            "Transactions the service has characterized",
        )
        self._observers_gauge = registry.gauge(
            "repro_service_observers", "Registered snapshot observers"
        )
        registry.register_collector(self._collect_metrics)

    def _collect_metrics(self) -> None:
        self._transactions_counter.set_total(self._transactions)
        self._observers_gauge.set(len(self._observers))

    # -- ingestion --------------------------------------------------------------

    def submit(self, event: BlockIOEvent) -> None:
        """Feed one block-layer issue event."""
        hist = self._submit_hist
        if hist is None:  # null registry: no clock reads on the hot path
            self.monitor.on_event(event)
            return
        started = time.perf_counter()
        self.monitor.on_event(event)
        hist.observe(time.perf_counter() - started)

    def submit_many(
        self,
        events: Union[Iterable[BlockIOEvent], EventBatch],
    ) -> int:
        """Feed a batch of issue events; returns how many were consumed.

        An :class:`EventBatch` (or an event list of at least
        ``columnar_threshold`` events, converted here) takes the monitor's
        vectorized columnar lane and reaches the engine as
        :class:`TransactionBatch` columns; anything else flows through the
        amortized :meth:`~repro.monitor.monitor.Monitor.on_events` object
        path, and the finished transactions are handed to the engine as
        one :meth:`process_batch` call rather than one callback per
        transaction.  Snapshot observers fire at most once per batch,
        after the whole batch lands, if one or more snapshot intervals
        were crossed.
        """
        batch_started = time.perf_counter() if self._submit_hist is not None \
            else None
        if not isinstance(events, EventBatch):
            events = self._maybe_columnar(events)
        object_batch: List[Transaction] = []
        txn_batches: List[TransactionBatch] = []
        self._batch_buffer = object_batch
        self._txn_batches = txn_batches
        try:
            # require_parent: only an already-traced request (the server's
            # ingest span is ambient here) gets a child span -- untraced
            # local ingest stays allocation-free.
            with trace_span("service.monitor", require_parent=True), \
                    self._stage_timer.span("monitor"):
                count = self.monitor.on_events(events)
        finally:
            self._batch_buffer = None
            self._txn_batches = None
        if object_batch:
            self._process_batch(object_batch)
        for txn_batch in txn_batches:
            self._process_transaction_batch(txn_batch)
        if batch_started is not None:
            self._batch_hist.observe(time.perf_counter() - batch_started)
            self._batch_size_hist.observe(count)
        return count

    def _maybe_columnar(
        self, events: Iterable[BlockIOEvent]
    ) -> Union[Iterable[BlockIOEvent], EventBatch]:
        """Convert a large-enough event sequence to columnar form.

        Conversion happens before the monitor sees anything, so a failed
        conversion (e.g. an offset beyond int64, which numpy cannot hold)
        simply falls back to the object path with no state to unwind.
        """
        threshold = self.columnar_threshold
        if threshold is None:
            return events
        if not isinstance(events, (list, tuple)):
            events = list(events)
        if len(events) < threshold:
            return events
        try:
            return EventBatch.from_events(events)
        except (OverflowError, ValueError, TypeError):
            return events

    def flush(self) -> None:
        """Close any open transaction (e.g. before a checkpoint)."""
        self.monitor.flush()

    def close(self) -> None:
        """Shut the service down: flush the final open transaction window.

        Without this, events that arrived after the last window closed --
        the tail of every real stream -- would sit in the monitor's open
        transaction forever and never reach the analyzer.  Idempotent;
        the service remains queryable (and even ingestable) afterwards,
        ``close`` only guarantees nothing is left in flight *now*.
        """
        self.flush()
        self._closed = True

    def release(self) -> None:
        """Retire the service: flush, then release engine resources.

        Unlike :meth:`close` (flush-only; the service stays queryable),
        ``release`` also shuts down a process-backed engine's worker
        fleet, after which the engine can no longer ingest or answer
        queries.  Call it once, after the last query and any final
        :meth:`checkpoint`.  Idempotent; a no-op for in-process engines
        beyond the flush.
        """
        self.close()
        self._release_engine()

    def _release_engine(self) -> None:
        engine_close = getattr(self.analyzer, "close", None)
        if engine_close is not None:
            engine_close()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def transactions(self) -> int:
        """Transactions characterized so far (cheap, no snapshot)."""
        return self._transactions

    def __enter__(self) -> "CharacterizationService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _on_transaction(self, transaction: Transaction) -> None:
        if self._batch_buffer is not None:
            self._batch_buffer.append(transaction)
            return
        self.analyzer.process_transaction(transaction)
        self._transactions += 1
        if self._transactions % self.snapshot_interval == 0:
            self._notify()

    def _on_transaction_batch(self, batch: TransactionBatch) -> None:
        if self._txn_batches is not None:
            self._txn_batches.append(batch)
            return
        # The monitor was driven directly (not via submit_many).
        self._process_transaction_batch(batch)

    def _process_batch(self, batch: List[Transaction]) -> None:
        with trace_span("service.analyze", require_parent=True,
                        tags={"transactions": len(batch)}), \
                self._stage_timer.span("analyze"):
            self.analyzer.process_batch(batch)
        self._after_batch(len(batch))

    def _process_transaction_batch(self, batch: TransactionBatch) -> None:
        with trace_span("service.analyze", require_parent=True,
                        tags={"transactions": len(batch)}), \
                self._stage_timer.span("analyze"):
            emitted = self.analyzer.process_transaction_batch(batch)
        self._after_batch(emitted)

    def _after_batch(self, count: int) -> None:
        interval = self.snapshot_interval
        before = self._transactions
        self._transactions += count
        if self._transactions // interval != before // interval:
            self._notify()

    def _notify(self) -> None:
        if not self._observers:
            return
        with self._stage_timer.span("notify"):
            snapshot = self.snapshot()
            for observer in self._observers:
                observer(snapshot)

    # -- queries -------------------------------------------------------------------

    def snapshot(self, kind: Optional[CorrelationKind] = None
                 ) -> ServiceSnapshot:
        """Current frequent correlations (optionally one R/W kind only)."""
        if self._submit_hist is not None:
            self._snapshots_counter.inc()
        if kind is None:
            frequent = self.analyzer.frequent_pairs(self.min_support)
        else:
            frequent = self.analyzer.frequent_pairs_of_kind(
                kind, self.min_support
            )
        return ServiceSnapshot(
            transactions=self._transactions,
            events=self.monitor.stats.events_seen,
            frequent_pairs=frequent,
            kind_summary=self.analyzer.kind_summary(),
        )

    def observe(self, observer: SnapshotObserver) -> None:
        """Register a periodic snapshot observer (the optimization hook)."""
        self._observers.append(observer)

    # -- persistence -----------------------------------------------------------------

    def checkpoint(self, stream: BinaryIO) -> int:
        """Persist the synopsis; returns bytes written.

        Open transactions are flushed first so nothing in flight is lost.
        A sharded engine is written as a format-v4 checkpoint (one CRC
        envelope per shard, R/W tallies included); a single analyzer keeps
        format v2, whose typed sidecar (R/W mixes) is rebuilt from future
        traffic after a restore.
        """
        self.flush()
        if self._submit_hist is not None:
            self._checkpoint_counter.labels(op="save").inc()
        return dump_engine(self.analyzer, stream)

    def restore(self, stream: BinaryIO) -> None:
        """Replace the synopsis with a previously checkpointed one.

        Every checkpoint format restores (see :meth:`_adopt_or_swap`): into
        the live engine when its layout matches the checkpoint's, else as
        a replacement engine of the checkpoint's layout.
        """
        if self._submit_hist is not None:
            self._checkpoint_counter.labels(op="restore").inc()
        self._adopt_or_swap(load_engine(stream, strict=True).engine)

    def _adopt_or_swap(self, engine) -> None:
        """Put a restored engine in service.

        When the live engine has the restored one's layout -- the same
        backend on the same shard count, or both the single analyzer --
        it adopts the restored state, so a process-backed engine keeps
        its worker fleet and the telemetry bindings stay.  Otherwise, or
        when the live fleet was already released, the live engine is
        released and the restored one takes its place.
        """
        if _layout(engine) == _layout(self.analyzer) \
                and not getattr(self.analyzer, "closed", False):
            self.analyzer.adopt(engine)
            return
        self._release_engine()
        self.analyzer = engine
        engine.rebind_metrics(self.registry)
        self.shards = _layout(engine)[1]
        self.shard_processes = False


def _layout(engine) -> Tuple[Optional[str], int]:
    """``(backend, shards)`` of a sharded engine; ``(None, 1)`` for the
    single analyzer, which has neither."""
    return getattr(engine, "backend_name", None), getattr(engine, "shards", 1)
