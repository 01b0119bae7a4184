"""The real-time monitoring module (paper Section III-C).

The monitor subscribes to block-layer issue events, optionally filters them
by process/process-group ID, feeds measured latencies to the transaction
window policy, groups events into transactions, enforces the transaction
size cap (8 requests in the paper's evaluation -- overflow simply starts a
new transaction), deduplicates repeated requests within a transaction, and
hands finished transactions to any number of sinks: typically the online
analyzer, and -- for the paper's dual evaluation methodology -- a recorder
that stores transactions for offline FIM.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields as dataclass_fields
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Union

import numpy as np

from ..telemetry.metrics import MetricsRegistry, get_default_registry
from .batch import _OP_FROM_CODE, _OP_TO_CODE, EventBatch, TransactionBatch
from .events import BlockIOEvent
from .transaction import Transaction, dedup_events
from .window import DynamicLatencyWindow, WindowPolicy

#: A transaction consumer.  Plain callables receive one
#: :class:`Transaction` object per finished transaction.  A sink object
#: that additionally exposes an ``on_transaction_batch(TransactionBatch)``
#: method is a *batch sink*: the columnar lane hands it whole
#: :class:`~repro.monitor.batch.TransactionBatch` objects instead of
#: materializing per-transaction objects (the scalar lane still calls it
#: per transaction through ``__call__``).
TransactionSink = Callable[[Transaction], None]

#: The paper's evaluation cap on requests per transaction.
DEFAULT_MAX_TRANSACTION_SIZE = 8


class GroupingMode(enum.Enum):
    """How event timestamps are compared against the window.

    ``GAP`` closes the open transaction when the gap since its *latest*
    event exceeds the window -- a burst of closely spaced requests stays
    together.  ``FIXED`` measures the window from the transaction's *first*
    event, bounding a transaction's total span.  Both satisfy the paper's
    definition (requests "within a brief window of time"); GAP is the
    default because it matches how coincident request bursts arrive.
    """

    GAP = "gap"
    FIXED = "fixed"


class ClockPolicy(enum.Enum):
    """What the monitor does with a non-monotonic (backwards) timestamp.

    blktrace merges per-CPU buffers, so slightly out-of-order delivery is
    normal; a large backwards jump instead means the clock source changed
    (suspend/resume, NTP step, a spliced trace).  The policies:

    * ``TOLERATE`` -- historical behaviour: the event goes through the
      normal gap comparison, where a negative gap never closes the open
      transaction (it can silently extend it indefinitely).
    * ``DROP`` -- discard the event.
    * ``REORDER`` -- fold the event into the open transaction when the
      backwards skew is within ``max_clock_skew`` (events that close
      together belong together regardless of delivery order); a jump
      beyond the skew bound escalates to a window reset.  The default.
    * ``RESET`` -- flush the open transaction and restart the window at
      the event's timestamp, adopting the new clock domain.
    """

    TOLERATE = "tolerate"
    DROP = "drop"
    REORDER = "reorder"
    RESET = "reset"


@dataclass
class MonitorStats:
    """Counters describing a monitor's activity.

    This dataclass stays the authoritative hot-path store; a monitor
    bound to a :class:`~repro.telemetry.metrics.MetricsRegistry`
    publishes each field as a ``repro_monitor_<field>_total`` counter at
    collect time (see :meth:`Monitor._collect_metrics`), so ingest never
    pays a registry call per event.
    """

    events_seen: int = 0
    events_filtered: int = 0
    transactions_emitted: int = 0
    singleton_transactions: int = 0
    duplicates_removed: int = 0
    size_splits: int = 0
    clock_anomalies: int = 0
    events_dropped: int = 0
    events_reordered: int = 0
    window_resets: int = 0
    window_clamps: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Field name -> value, in declaration order."""
        return {f.name: getattr(self, f.name) for f in
                dataclass_fields(self)}


#: Help strings for the registry counters derived from MonitorStats.
_STAT_HELP = {
    "events_seen": "Block I/O issue events consumed",
    "events_filtered": "Events rejected by the PID/PGID filter",
    "transactions_emitted": "Transactions handed to sinks",
    "singleton_transactions": "Emitted transactions with one request",
    "duplicates_removed": "Requests dropped by in-transaction dedup",
    "size_splits": "Transactions closed by the size cap",
    "clock_anomalies": "Backwards-timestamp events detected",
    "events_dropped": "Anomalous events discarded (ClockPolicy.DROP)",
    "events_reordered": "Anomalous events folded into the open transaction",
    "window_resets": "Window restarts after a clock-domain change",
    "window_clamps": "Degenerate window durations clamped to zero",
}

#: Why :meth:`Monitor.on_batch` replayed a batch through the scalar lane
#: (the ``reason`` label of ``repro_monitor_columnar_fallbacks_total``).
FALLBACK_REASONS = (
    "grouping",          # FIXED grouping has no vectorized cut
    "unordered",         # timestamps go backwards inside the batch
    "behind_high_water",  # the batch starts behind the monitor's clock
    "negative_latency",  # the scalar lane raises at the right position
    "degenerate_window",  # zero/negative/NaN window needs clamping
    "window_policy",     # the policy cannot precompute its durations
)


class Monitor:
    """Groups block I/O issue events into transactions."""

    def __init__(
        self,
        window: Optional[WindowPolicy] = None,
        sinks: Optional[Sequence[TransactionSink]] = None,
        max_transaction_size: int = DEFAULT_MAX_TRANSACTION_SIZE,
        dedup: bool = True,
        pid_filter: Optional[Set[int]] = None,
        pgid_filter: Optional[Set[int]] = None,
        grouping: GroupingMode = GroupingMode.GAP,
        clock_policy: ClockPolicy = ClockPolicy.REORDER,
        max_clock_skew: Optional[float] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        """``max_clock_skew`` bounds how far backwards a timestamp may jump
        and still be folded into the open transaction under
        :attr:`ClockPolicy.REORDER`; ``None`` uses the current window
        duration (jitter within one window is benign by definition).

        ``registry`` selects the telemetry registry the monitor publishes
        to (``None``: the process-local default; pass
        :data:`~repro.telemetry.NULL_REGISTRY` to disable).  All counters
        are published lazily at collect time from :attr:`stats`.
        """
        if max_transaction_size < 1:
            raise ValueError(
                f"max_transaction_size must be >= 1, got {max_transaction_size}"
            )
        if max_clock_skew is not None and max_clock_skew < 0:
            raise ValueError(
                f"max_clock_skew must be >= 0, got {max_clock_skew}"
            )
        self.window = window if window is not None else DynamicLatencyWindow()
        self._sinks: List[TransactionSink] = list(sinks or ())
        self.max_transaction_size = max_transaction_size
        self.dedup = dedup
        self.pid_filter = pid_filter
        self.pgid_filter = pgid_filter
        self.grouping = grouping
        self.clock_policy = clock_policy
        self.max_clock_skew = max_clock_skew
        self.stats = MonitorStats()
        self._pending: List[BlockIOEvent] = []
        self._high_water: Optional[float] = None
        self._bind_metrics(registry)

    def add_sink(self, sink: TransactionSink) -> None:
        self._sinks.append(sink)

    # -- telemetry ----------------------------------------------------------

    def _bind_metrics(self, registry: Optional[MetricsRegistry]) -> None:
        registry = registry if registry is not None else \
            get_default_registry()
        self.registry = registry
        # Kept off MonitorStats: the lanes must agree on those, while
        # fallbacks only ever happen on the columnar lane.
        self._fallback_counters = None
        if not registry.enabled:
            return
        fallbacks = registry.counter(
            "repro_monitor_columnar_fallbacks_total",
            "Columnar batches replayed through the scalar lane",
            labelnames=("reason",),
        )
        self._fallback_counters = {
            reason: fallbacks.labels(reason=reason)
            for reason in FALLBACK_REASONS
        }
        self._stat_counters = {
            name: registry.counter(f"repro_monitor_{name}_total", help)
            for name, help in _STAT_HELP.items()
        }
        self._pending_gauge = registry.gauge(
            "repro_monitor_pending_events",
            "Events buffered in the open transaction",
        )
        self._window_gauge = registry.gauge(
            "repro_monitor_window_seconds",
            "Current transaction window duration",
        )
        registry.register_collector(self._collect_metrics)

    def _collect_metrics(self) -> None:
        """Publish the dataclass counters into the registry (pull seam)."""
        for name, value in self.stats.as_dict().items():
            self._stat_counters[name].set_total(value)
        self._pending_gauge.set(len(self._pending))
        duration = self.window.duration()
        self._window_gauge.set(duration if math.isfinite(duration) else 0.0)

    # -- event intake -------------------------------------------------------

    def _passes_filter(self, event: BlockIOEvent) -> bool:
        if self.pid_filter is not None and event.pid not in self.pid_filter:
            return False
        if self.pgid_filter is not None and event.pgid not in self.pgid_filter:
            return False
        return True

    def _window_anchor(self) -> float:
        if self.grouping is GroupingMode.GAP:
            # Max, not last: a reordered event folded into the transaction
            # must neither stretch the window backwards nor shrink it.
            return max(pending.timestamp for pending in self._pending)
        return self._pending[0].timestamp

    def _window_duration(self) -> float:
        """The window duration, guarded against degenerate policies.

        A custom :class:`WindowPolicy` may return zero, a negative value,
        or NaN; any of those would make the gap comparison nonsense (a
        negative window can never be exceeded by a zero gap, NaN compares
        false with everything).  Such durations are clamped to zero --
        every positive gap then closes the transaction -- and counted.
        """
        duration = self.window.duration()
        if not (duration > 0.0):  # catches negative, zero, and NaN
            self.stats.window_clamps += 1
            return 0.0
        return duration

    def on_event(self, event: BlockIOEvent) -> None:
        """Consume one issue event (the blktrace callback).

        Delegates to the same ingest core as :meth:`on_events`, so the
        clock-anomaly and degenerate-window accounting of the two entry
        points cannot drift apart: batch and per-event ingest of the
        same trace produce identical :class:`MonitorStats` by
        construction (``tests/test_monitor.py`` asserts the parity).
        """
        self._ingest((event,))

    def on_events(
        self, events: Union[EventBatch, Iterable[BlockIOEvent]]
    ) -> int:
        """Consume a batch of issue events; returns how many were seen.

        Semantically identical to calling :meth:`on_event` per event --
        both run the same ingest core -- but the per-event bookkeeping is
        amortized over the batch: method and attribute lookups are
        hoisted out of the loop, and the window duration is only
        recomputed when a new latency observation (or a clamped
        degenerate duration, which is counted and never cached) can
        actually have changed it, instead of once per event.

        An :class:`~repro.monitor.batch.EventBatch` argument routes to the
        columnar lane (:meth:`on_batch`), which cuts the same transactions
        with vectorized window arithmetic.
        """
        if isinstance(events, EventBatch):
            return self.on_batch(events)
        return self._ingest(events)

    def _ingest(self, events: Iterable[BlockIOEvent]) -> int:
        """The single ingest code path behind ``on_event``/``on_events``."""
        count = 0
        stats = self.stats
        unfiltered = self.pid_filter is None and self.pgid_filter is None
        passes = self._passes_filter
        observe = self.window.observe_latency
        max_size = self.max_transaction_size
        tolerate = self.clock_policy is ClockPolicy.TOLERATE
        duration: Optional[float] = None  # recompute lazily

        for event in events:
            count += 1
            stats.events_seen += 1
            if not unfiltered and not passes(event):
                stats.events_filtered += 1
                continue
            if event.latency is not None:
                observe(event.latency)
                duration = None  # the dynamic window may have moved
            if duration is None:
                duration = self._window_duration()
                if duration == 0.0:
                    # Possibly a clamped degenerate policy; never cache it.
                    cacheable = False
                else:
                    cacheable = True

            timestamp = event.timestamp
            high_water = self._high_water
            if high_water is not None and timestamp < high_water:
                stats.clock_anomalies += 1
                if not tolerate:
                    self._on_clock_anomaly(event, duration)
                    if not cacheable:
                        duration = None
                    continue

            pending = self._pending
            if pending:
                gap = timestamp - self._window_anchor()
                if gap > duration:
                    self._flush()
                elif len(pending) >= max_size:
                    stats.size_splits += 1
                    self._flush()
            self._pending.append(event)
            if high_water is None or timestamp > high_water:
                self._high_water = timestamp
            if not cacheable:
                duration = None
        return count

    # -- the columnar ingest lane -------------------------------------------

    def _fall_back(self, batch: EventBatch, reason: str) -> int:
        """Replay a batch through the scalar core, counting why."""
        if self._fallback_counters is not None:
            self._fallback_counters[reason].inc()
        return self._ingest(batch.iter_events())

    def on_batch(self, batch: EventBatch) -> int:
        """Consume a columnar :class:`EventBatch`; returns events seen.

        The vectorized fast path computes every transaction cut of the
        batch with array arithmetic -- identical transactions, stats, and
        sink deliveries to feeding the same events through
        :meth:`on_event` one at a time.  It applies when the batch is
        well-ordered (the common case for trace replay and generated
        workloads): GAP grouping, timestamps non-decreasing and not
        behind the monitor's high-water mark, and a window policy whose
        :meth:`~repro.monitor.window.WindowPolicy.durations_after`
        supports batching.  Any other batch falls back to the scalar
        ingest core, so correctness never depends on the fast path
        being taken; ``repro_monitor_columnar_fallbacks_total{reason}``
        counts each fallback.
        """
        n = len(batch)
        if n == 0:
            return 0
        if self.grouping is not GroupingMode.GAP:
            return self._fall_back(batch, "grouping")

        # The filter mask is computed up front so the fast-path checks see
        # only the events that would survive; nothing is counted yet, so a
        # fallback can still replay the whole batch through the scalar lane.
        if self.pid_filter is None and self.pgid_filter is None:
            keep_all = True
            ts_kept = batch.timestamps
            lat_kept = batch.latencies
            kept = n
        else:
            mask = np.ones(n, dtype=bool)
            if self.pid_filter is not None:
                mask &= np.isin(batch.pids,
                                np.fromiter(self.pid_filter, dtype=np.int64))
            if self.pgid_filter is not None:
                mask &= np.isin(batch.pgids,
                                np.fromiter(self.pgid_filter, dtype=np.int64))
            keep_all = bool(mask.all())
            ts_kept = batch.timestamps if keep_all else batch.timestamps[mask]
            lat_kept = batch.latencies if keep_all else batch.latencies[mask]
            kept = n if keep_all else int(mask.sum())

        stats = self.stats
        if kept == 0:
            stats.events_seen += n
            stats.events_filtered += n
            return n

        # Fast-path preconditions.  Each failure replays through the scalar
        # core, which owns the anomaly policies, degenerate-window clamping,
        # and the ValueError position for negative latencies.  All checks
        # precede durations_after() because that call advances window state.
        if np.any(np.diff(ts_kept) < 0):
            return self._fall_back(batch, "unordered")
        if self._high_water is not None and ts_kept[0] < self._high_water:
            return self._fall_back(batch, "behind_high_water")
        if np.any(lat_kept < 0):
            return self._fall_back(batch, "negative_latency")
        d0 = self.window.duration()
        if not (d0 > 0.0):
            return self._fall_back(batch, "degenerate_window")
        observed = ~np.isnan(lat_kept)
        durations_observed = self.window.durations_after(
            lat_kept[observed].tolist()
        )
        if durations_observed is None:
            return self._fall_back(batch, "window_policy")

        # Window duration in effect at each event: the value after the most
        # recent latency observation at or before it (d0 before the first).
        rank = np.cumsum(observed)
        dur_kept = np.concatenate(
            ([d0], np.asarray(durations_observed, dtype=np.float64))
        )[rank]

        pending = self._pending
        p = len(pending)
        if keep_all:
            pid_kept = batch.pids
            op_kept = batch.ops
            start_kept = batch.starts
            len_kept = batch.lengths
            pgid_kept = batch.pgids
        else:
            pid_kept = batch.pids[mask]
            op_kept = batch.ops[mask]
            start_kept = batch.starts[mask]
            len_kept = batch.lengths[mask]
            pgid_kept = batch.pgids[mask]

        if p:
            op_code = _OP_TO_CODE
            nan = float("nan")
            ts_all = np.concatenate(
                ([e.timestamp for e in pending], ts_kept))
            pid_all = np.concatenate(
                (np.asarray([e.pid for e in pending], dtype=np.int64),
                 pid_kept))
            op_all = np.concatenate(
                (np.asarray([op_code[e.op] for e in pending], dtype=np.uint8),
                 op_kept))
            start_all = np.concatenate(
                (np.asarray([e.start for e in pending], dtype=np.int64),
                 start_kept))
            len_all = np.concatenate(
                (np.asarray([e.length for e in pending], dtype=np.int64),
                 len_kept))
            lat_all = np.concatenate(
                ([nan if e.latency is None else e.latency for e in pending],
                 lat_kept))
            pgid_all = np.concatenate(
                (np.asarray([e.pgid for e in pending], dtype=np.int64),
                 pgid_kept))
            anchor0 = max(e.timestamp for e in pending)
            prev_ts = np.concatenate(([anchor0], ts_kept[:-1]))
        else:
            ts_all = ts_kept
            pid_all = pid_kept
            op_all = op_kept
            start_all = start_kept
            len_all = len_kept
            lat_all = lat_kept
            pgid_all = pgid_kept
            # A zero first gap with a positive window never cuts, matching
            # the scalar lane's "no check when pending is empty".
            prev_ts = np.concatenate(([ts_kept[0]], ts_kept[:-1]))

        total = p + kept
        max_size = self.max_transaction_size
        gap_cut = (ts_kept - prev_ts) > dur_kept

        # Transaction boundaries.  A cut before combined position j starts a
        # new transaction at j; gap cuts are position-independent (anchor is
        # always the previous event in a monotonic batch), and size cuts fall
        # at multiples of max_size within each gap-delimited segment.
        starts_flag = np.zeros(total, dtype=bool)
        starts_flag[0] = True
        starts_flag[p:] |= gap_cut
        idx = np.arange(total)
        run_start = np.maximum.accumulate(np.where(starts_flag, idx, 0))
        offset_in_run = idx - run_start
        size_cut = (~starts_flag) & (offset_in_run > 0) \
            & (offset_in_run % max_size == 0)
        cut = starts_flag | size_cut
        txn_id = np.cumsum(cut) - 1

        stats.events_seen += n
        stats.events_filtered += n - kept
        stats.size_splits += int(size_cut.sum())
        self._high_water = float(ts_kept[-1])

        # The last transaction stays open: materialize its events back into
        # the pending list (reusing the existing objects when the tail still
        # begins inside the old pending prefix).
        tail_start = int(np.flatnonzero(cut)[-1])
        op_from = _OP_FROM_CODE
        # Cuts happen only at position 0 or at batch positions (>= p), so a
        # tail reaching into the old pending prefix keeps all of it.
        tail_events: List[BlockIOEvent] = pending[tail_start:] if \
            tail_start < p else []
        for j in range(max(tail_start, p), total):
            latency = float(lat_all[j])
            tail_events.append(BlockIOEvent(
                float(ts_all[j]), int(pid_all[j]), op_from[int(op_all[j])],
                int(start_all[j]), int(len_all[j]),
                None if latency != latency else latency, int(pgid_all[j]),
            ))
        self._pending = tail_events

        if tail_start == 0:
            return n  # everything still fits in the open transaction

        # Flushed region: combined rows [0, tail_start).  One lexsort gives
        # both views: within each transaction the rows group by (start,
        # length) in sorted order -- the analyzers' iteration order -- and
        # the first row of each group (lowest arrival) is the dedup keeper.
        flushed = tail_start
        txn_f = txn_id[:flushed]
        start_f = start_all[:flushed]
        len_f = len_all[:flushed]
        emitted = int(txn_f[-1]) + 1
        order = np.lexsort((np.arange(flushed), len_f, start_f, txn_f))
        t_s = txn_f[order]
        s_s = start_f[order]
        l_s = len_f[order]
        first_of_group = np.empty(flushed, dtype=bool)
        first_of_group[0] = True
        np.not_equal(t_s[1:], t_s[:-1], out=first_of_group[1:])
        first_of_group[1:] |= s_s[1:] != s_s[:-1]
        first_of_group[1:] |= l_s[1:] != l_s[:-1]
        distinct_rows = order[first_of_group]
        distinct_counts = np.bincount(t_s[first_of_group],
                                      minlength=emitted)
        offsets = np.zeros(emitted + 1, dtype=np.int64)
        np.cumsum(distinct_counts, out=offsets[1:])

        if self.dedup:
            raw_keep = np.zeros(flushed, dtype=bool)
            raw_keep[distinct_rows] = True
            stats.duplicates_removed += flushed - len(distinct_rows)
            raw_counts = distinct_counts  # kept rows == distinct rows per txn
            raw_slice = raw_keep
        else:
            raw_counts = np.bincount(txn_f, minlength=emitted)
            raw_slice = slice(None)
        raw_offsets = np.zeros(emitted + 1, dtype=np.int64)
        np.cumsum(raw_counts, out=raw_offsets[1:])

        stats.transactions_emitted += emitted
        stats.singleton_transactions += int((raw_counts == 1).sum())

        transaction_batch = TransactionBatch(
            start_f[distinct_rows], len_f[distinct_rows],
            op_all[:flushed][distinct_rows], offsets,
            ts_all[:flushed][raw_slice], pid_all[:flushed][raw_slice],
            op_all[:flushed][raw_slice], start_f[raw_slice],
            len_f[raw_slice], lat_all[:flushed][raw_slice],
            pgid_all[:flushed][raw_slice], raw_offsets,
        )

        object_sinks = []
        for sink in self._sinks:
            if hasattr(sink, "on_transaction_batch"):
                sink.on_transaction_batch(transaction_batch)
            else:
                object_sinks.append(sink)
        if object_sinks:
            for transaction in transaction_batch.transactions():
                for sink in object_sinks:
                    sink(transaction)
        return n

    def _on_clock_anomaly(self, event: BlockIOEvent, duration: float) -> None:
        """Apply the configured policy to a backwards-timestamp event."""
        if self.clock_policy is ClockPolicy.DROP:
            self.stats.events_dropped += 1
            return
        skew = self._high_water - event.timestamp
        slack = (self.max_clock_skew if self.max_clock_skew is not None
                 else duration)
        if self.clock_policy is ClockPolicy.REORDER and skew <= slack:
            # Delivery jitter within the window: the event belongs to the
            # open transaction; the high-water mark is left untouched so
            # the stale timestamp cannot stretch the window backwards.
            self.stats.events_reordered += 1
            if self._pending and len(self._pending) >= self.max_transaction_size:
                self.stats.size_splits += 1
                self._flush()
            self._pending.append(event)
            return
        # RESET, or a REORDER jump beyond the skew bound: the clock domain
        # changed.  Close the open transaction and restart at the event.
        self.stats.window_resets += 1
        self._flush()
        self._pending.append(event)
        self._high_water = event.timestamp

    def flush(self) -> None:
        """Emit any open transaction (call at end of stream)."""
        self._flush()

    def _flush(self) -> None:
        if not self._pending:
            return
        events = self._pending
        self._pending = []
        if self.dedup:
            events, dropped = dedup_events(events)
            self.stats.duplicates_removed += dropped
        transaction = Transaction(events)
        self.stats.transactions_emitted += 1
        if len(transaction) == 1:
            self.stats.singleton_transactions += 1
        for sink in self._sinks:
            sink(transaction)


class TransactionRecorder:
    """A sink that stores transactions for offline analysis.

    Reproduces the paper's evaluation pipeline, in which "transactions
    generated by our real-time monitoring module are both stored for offline
    analysis and also passed to the online analysis module in real-time".
    """

    def __init__(self) -> None:
        self.transactions: List[Transaction] = []

    def __call__(self, transaction: Transaction) -> None:
        self.transactions.append(transaction)

    def __len__(self) -> int:
        return len(self.transactions)

    def extent_transactions(self) -> List[List]:
        """Transactions as extent lists -- the offline FIM input format."""
        return [transaction.extents for transaction in self.transactions]
