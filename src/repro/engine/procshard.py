"""Shard-per-process execution: the GIL-free synopsis engine.

:class:`~repro.engine.backends.host.BackendEngine`'s thread-parallel batch
path cannot speed up the pure-Python table loops -- the GIL serializes
them.  This module runs each shard in its **own process**: a spawned
worker owns one synopsis backend (:mod:`repro.engine.backends`; the
two-tier tables by default) and applies pre-routed columnar work shipped
to it as pickled numpy arrays, so N shards use N cores.

Routing.  The in-process engine routes with Python's ``hash() % N``; a
process engine cannot, because worker-side structures must agree with
main-process routing across interpreter boundaries and restarts.  Extents
and pairs are instead routed by a SplitMix64-style avalanche hash over
their integer columns (:func:`route_batch`) -- deterministic, vectorized,
and identical everywhere.  The two engines therefore partition the key
space *differently*: per-shard residency differs between them, while the
analysis itself (tally arithmetic, promotion, eviction-demotion coupling,
R/W mixes) is the same code, the backend's ``apply_shard_work``.  Pair
expansion is also vectorized by grouping transactions of equal size,
which orders a batch's pairs by transaction size rather than strictly by
transaction; tallies are unaffected (each pair occurrence is still
applied exactly once).

Protocol.  Batches run in lockstep over duplex pipes: the main process
ships each worker its routed slice, waits for every worker's ack (which
carries the extents evicted from that worker's item table), then
broadcasts cross-shard demotions fire-and-forget -- pipe FIFO ordering
guarantees a worker applies them before its next batch, mirroring the
thread engine's demote-after-join batch semantics.  A worker that dies
mid-batch is detected by liveness polling and surfaces as
:class:`ShardWorkerError` (counted in
``repro_engine_worker_deaths_total``) instead of a hang.

Queries and checkpointing fetch state from the workers: query methods
execute remotely and merge like the in-process engine; the
:attr:`~ProcessShardedAnalyzer.shard_backends` property materializes each
worker's backend in the main process, so checkpoint format v4 works
unchanged, and :meth:`~ProcessShardedAnalyzer.adopt_backends` ships
restored backends back into a live fleet.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.analyzer import AnalyzerReport
from ..core.config import AnalyzerConfig
from ..core.extent import Extent, ExtentPair
from ..core.typed import CorrelationKind, TypeTally
from ..telemetry.aggregate import merge_worker_snapshot
from ..telemetry.metrics import MetricsRegistry, get_default_registry
from ..telemetry.tracelog import current_context, get_tracelog
from .backends import create_backend, deserialize_backend
from .backends.host import merge_partners, merge_ranked, merged_stats, \
    shard_config


class ShardWorkerError(RuntimeError):
    """A shard worker process died or misbehaved.

    Raised instead of hanging when a worker exits mid-protocol (OOM kill,
    signal, crash).  The engine is not usable for further ingest after
    this; call :meth:`ProcessShardedAnalyzer.close` to reap the survivors.
    """


# SplitMix64-style avalanche constants; the multiply-xor-shift rounds give
# uniform shard assignment even for near-sequential block numbers.
_MIX_A = np.uint64(0x9E3779B97F4A7C15)
_MIX_B = np.uint64(0xBF58476D1CE4E5B9)
_MIX_C = np.uint64(0x94D049BB133111EB)
_SH_30 = np.uint64(30)
_SH_27 = np.uint64(27)
_SH_31 = np.uint64(31)


def _mix_columns(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Avalanche-hash parallel integer columns into one uint64 per row."""
    h = np.zeros(len(columns[0]), dtype=np.uint64)
    for column in columns:
        h ^= column.astype(np.uint64)
        h ^= h >> _SH_30
        h *= _MIX_B
        h ^= h >> _SH_27
        h *= _MIX_C
        h ^= h >> _SH_31
        h += _MIX_A
    return h


def shard_of_columns(columns: Sequence[np.ndarray], shards: int) -> np.ndarray:
    """Shard index per row for the given key columns."""
    return (_mix_columns(columns) % np.uint64(shards)).astype(np.int64)


#: Routed work for one shard: ``((item_starts, item_lengths),
#: (a_starts, a_lengths, b_starts, b_lengths, mixes))``.
ShardWork = Tuple[Tuple[np.ndarray, np.ndarray],
                  Tuple[np.ndarray, np.ndarray, np.ndarray,
                        np.ndarray, np.ndarray]]


def route_batch(batch, shards: int) -> List[ShardWork]:
    """Partition a :class:`~repro.monitor.batch.TransactionBatch`'s
    distinct view into per-shard columnar work lists.

    Pure function of (batch, shards): the engine, the in-process reference
    used in tests, and a restored engine all route identically.  Item rows
    keep stream order within each shard; pair rows are grouped by
    transaction size (the vectorized expansion), then keep order within
    each group.
    """
    starts = batch.starts
    lengths = batch.lengths
    ops = batch.ops
    offsets = batch.offsets

    item_shard = shard_of_columns((starts, lengths), shards)

    counts = np.diff(offsets)
    base = offsets[:-1]
    ai_parts: List[np.ndarray] = []
    aj_parts: List[np.ndarray] = []
    for size in np.unique(counts):
        if size < 2:
            continue
        txn_rows = base[counts == size][:, None]
        tmpl_i, tmpl_j = np.triu_indices(int(size), k=1)
        ai_parts.append((txn_rows + tmpl_i[None, :]).ravel())
        aj_parts.append((txn_rows + tmpl_j[None, :]).ravel())
    if ai_parts:
        ai = np.concatenate(ai_parts)
        aj = np.concatenate(aj_parts)
        a_starts = starts[ai]
        a_lengths = lengths[ai]
        b_starts = starts[aj]
        b_lengths = lengths[aj]
        mixes = ops[ai] + ops[aj]
        pair_shard = shard_of_columns(
            (a_starts, a_lengths, b_starts, b_lengths), shards
        )
    else:
        empty64 = np.empty(0, dtype=np.int64)
        a_starts = a_lengths = b_starts = b_lengths = empty64
        mixes = np.empty(0, dtype=np.uint8)
        pair_shard = empty64

    work: List[ShardWork] = []
    for index in range(shards):
        item_sel = item_shard == index
        pair_sel = pair_shard == index
        work.append((
            (starts[item_sel], lengths[item_sel]),
            (a_starts[pair_sel], a_lengths[pair_sel],
             b_starts[pair_sel], b_lengths[pair_sel], mixes[pair_sel]),
        ))
    return work


def _shard_worker_main(conn, config: AnalyzerConfig, index: int = 0,
                       telemetry: Optional[dict] = None) -> None:
    """Worker process entry point: serve one synopsis backend over a pipe.

    ``process`` applies pre-routed columnar work through the backend's
    ``apply_shard_work`` and acks the item evictions (always empty for
    sketch backends); ``fetch``/``adopt`` move the backend's serialized
    payload (checkpoint v4 frames it); ``query`` dispatches by method name.

    ``telemetry`` (picklable dict) switches on the worker's own
    observability: ``{"metrics": bool, "metrics_interval": seconds,
    "trace_path": str|None, "slow_threshold": seconds}``.  With metrics
    on, the worker binds its backend to a real registry (labelled with its
    shard index) and piggybacks a full cumulative ``snapshot()`` on
    ``process`` acks at most once per interval -- the first ack always
    ships one, so the parent is never blind after the first batch.  With
    a trace path, the worker appends ``shard.apply`` spans (children of
    the context the parent ships per batch) to the shared NDJSON file.
    """
    from ..telemetry.tracelog import TraceContext, TraceLog

    telemetry = telemetry or {}
    registry = MetricsRegistry() if telemetry.get("metrics") else None
    backend = create_backend(config.backend, config)
    if registry is not None:
        backend.bind_metrics(registry, index)
    tracer = None
    if telemetry.get("trace_path"):
        # Sample decisions were made at the trace root and travel with
        # the shipped context; the worker's own rate stays 0.
        tracer = TraceLog(telemetry["trace_path"], sample_rate=0.0,
                          slow_threshold=telemetry.get(
                              "slow_threshold", 0.25))
    ship_interval = float(telemetry.get("metrics_interval", 0.5))
    last_ship = float("-inf")
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        op = message[0]
        try:
            if op == "process":
                item_work, pair_work = message[1], message[2]
                context = TraceContext.from_tuple(message[3]) \
                    if len(message) > 3 else None
                if tracer is not None and context is not None:
                    with tracer.span("shard.apply", parent=context,
                                     tags={"shard": index}):
                        evicted = backend.apply_shard_work(
                            *item_work, *pair_work)
                else:
                    evicted = backend.apply_shard_work(
                        *item_work, *pair_work)
                snap = None
                if registry is not None:
                    now = time.monotonic()
                    if now - last_ship >= ship_interval:
                        last_ship = now
                        snap = registry.snapshot()
                conn.send(("ok", (evicted, snap)))
            elif op == "collect":
                conn.send(("ok",
                           registry.snapshot() if registry is not None
                           else None))
            elif op == "demote":
                intern_extent = backend._interner.extent
                demote_item = backend.demote_item
                for start, length in message[1]:
                    demote_item(intern_extent(start, length))
                # Fire-and-forget: no ack, FIFO ordering is the guarantee.
            elif op == "query":
                _op, name, args, kwargs = message
                conn.send(("ok", getattr(backend, name)(*args, **kwargs)))
            elif op == "occupancy":
                conn.send(("ok", backend.occupancy()))
            elif op == "fetch":
                conn.send(("ok", backend.serialize()))
            elif op == "adopt":
                backend = deserialize_backend(
                    config.backend, message[1], config
                )
                if registry is not None:
                    backend.bind_metrics(registry, index)
                conn.send(("ok", None))
            elif op == "reset":
                backend.reset()
                conn.send(("ok", None))
            elif op == "close":
                conn.send(("ok", None))
                break
            else:
                conn.send(("err", f"unknown op {op!r}"))
        except Exception as exc:  # surface, don't kill the worker
            try:
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
            except (BrokenPipeError, OSError):
                break
    conn.close()


class ProcessShardedAnalyzer:
    """N shard synopses in N worker processes, engine interface on top.

    Drop-in for :class:`~repro.engine.backends.host.BackendEngine` on the
    columnar lane: ``process_transaction_batch`` ingest, merged
    ``frequent_*`` / typed / partner queries, ``report()``, ``reset()``,
    and the ``shard_backends`` / ``adopt_backends`` state seam that
    checkpoint format v4 and restores use.  The
    object path (``process_transaction`` etc.) is intentionally absent --
    per-event shipping would pay a pickle per event; batch through a
    monitor or :meth:`~repro.monitor.batch.TransactionBatch.\
from_transactions` instead.

    Note the routing difference from the in-process engine (module
    docstring): the two engines agree on analysis semantics but not on
    which shard holds which key, so their per-shard occupancies differ.

    Workers are daemons: an abandoned engine cannot keep the interpreter
    alive, but call :meth:`close` (or use the engine as a context manager)
    for a clean shutdown.
    """

    def __init__(
        self,
        config: Optional[AnalyzerConfig] = None,
        shards: int = 4,
        registry: Optional[MetricsRegistry] = None,
        mp_context: str = "spawn",
        metrics_interval: float = 0.5,
    ) -> None:
        """``mp_context`` selects the multiprocessing start method; spawn
        is the default because it is fork-safe with threads (the serving
        layer runs them) and behaves identically across platforms.
        ``metrics_interval`` throttles how often a worker piggybacks its
        registry snapshot on a ``process`` ack (seconds).
        """
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.config = config or AnalyzerConfig()
        self.backend_name = self.config.backend
        self.shards = shards
        self._per_shard = shard_config(self.config, shards)
        self._transactions = 0
        self._extents_seen = 0
        self._pairs_seen = 0
        self._worker_deaths = 0
        self._closed = False
        self._worker_snaps: Dict[int, dict] = {}
        self._merged: Set[Tuple[str, Tuple[str, ...]]] = set()
        registry = registry if registry is not None else \
            get_default_registry()
        tracer = get_tracelog()
        self._trace_batches = tracer is not None
        telemetry = {
            "metrics": bool(registry.enabled),
            "metrics_interval": metrics_interval,
            "trace_path": tracer.path if tracer is not None else None,
            "slow_threshold":
                tracer.slow_threshold if tracer is not None else 0.25,
        }
        ctx = multiprocessing.get_context(mp_context)
        self._procs: List = []
        self._conns: List = []
        try:
            for _index in range(shards):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=_shard_worker_main,
                    args=(child_conn, self._per_shard, _index, telemetry),
                    daemon=True,
                    name=f"repro-shard-{_index}",
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
        except BaseException:
            self.close()
            raise
        self._bind_metrics(registry)

    # -- telemetry ----------------------------------------------------------

    def _bind_metrics(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        if not registry.enabled:
            return
        self._shards_gauge = registry.gauge(
            "repro_engine_shards", "Shard count of the synopsis engine"
        )
        self._deaths_counter = registry.counter(
            "repro_engine_worker_deaths_total",
            "Shard worker processes that died mid-protocol",
        )
        self._flow_counters = {
            name: registry.counter(f"repro_engine_{name}_total", help)
            for name, help in {
                "transactions": "Transactions characterized by the engine",
                "extents": "Distinct extents routed to shards",
                "pairs": "Extent pairs routed to shards",
            }.items()
        }
        registry.register_collector(self._collect_metrics)

    def rebind_metrics(self, registry: MetricsRegistry) -> None:
        """Re-home the engine's telemetry on ``registry`` (restore path)."""
        if registry is self.registry:
            return
        old = getattr(self, "registry", None)
        if old is not None and old.enabled:
            old.deregister_collector(self._collect_metrics)
        self._merged = set()
        self._bind_metrics(registry)

    def _collect_metrics(self) -> None:
        self._shards_gauge.set(self.shards)
        self._deaths_counter.set_total(self._worker_deaths)
        self._flow_counters["transactions"].set_total(self._transactions)
        self._flow_counters["extents"].set_total(self._extents_seen)
        self._flow_counters["pairs"].set_total(self._pairs_seen)
        # Replay the workers' latest shipped snapshots under shard=N
        # labels.  Cached merges are idempotent (cumulative values), and
        # no pipe traffic happens here: scrapes run on exporter threads,
        # and the duplex pipes belong to the ingest thread alone.
        for index, snap in list(self._worker_snaps.items()):
            self._merged.update(
                merge_worker_snapshot(self.registry, snap, shard=index))

    def collect_worker_metrics(self) -> int:
        """Fetch a fresh registry snapshot from every worker now.

        The on-demand half of worker aggregation (acks only piggyback a
        snapshot every ``metrics_interval``); call from the ingest owner
        thread before an exposition that must be current.  Returns the
        number of workers that answered with a snapshot.
        """
        if not self.registry.enabled:
            return 0
        fresh = 0
        for index, snap in enumerate(self._request_all(("collect",))):
            if snap is not None:
                self._worker_snaps[index] = snap
                fresh += 1
        return fresh

    def _release_metrics(self) -> None:
        """Withdraw from the registry on close (the release-leak fix):
        deregister the pull collector, zero the shard gauge, and remove
        every worker-merged series so a dead fleet cannot keep reporting
        its last occupancy forever."""
        registry = getattr(self, "registry", None)
        if registry is None or not registry.enabled:
            return
        registry.deregister_collector(self._collect_metrics)
        self._shards_gauge.set(0)
        for name, key in self._merged:
            family = registry.get(name)
            if family is not None:
                family.remove_child(key)
        self._merged.clear()
        self._worker_snaps.clear()

    # -- worker protocol plumbing -------------------------------------------

    def _died(self, index: int, why: str) -> None:
        self._worker_deaths += 1
        exit_code = self._procs[index].exitcode
        raise ShardWorkerError(
            f"shard worker {index} {why} (exit code {exit_code}); "
            f"the engine must be closed"
        )

    def _send(self, index: int, message) -> None:
        try:
            self._conns[index].send(message)
        except (BrokenPipeError, OSError):
            self._died(index, "is unreachable")

    def _recv(self, index: int):
        """Receive one reply, detecting worker death instead of hanging."""
        conn = self._conns[index]
        proc = self._procs[index]
        while True:
            if conn.poll(0.2):
                try:
                    return conn.recv()
                except (EOFError, OSError):
                    self._died(index, "closed its pipe mid-reply")
            if not proc.is_alive():
                # Final drain: the reply may have been written before death.
                if conn.poll(0.5):
                    try:
                        return conn.recv()
                    except (EOFError, OSError):
                        pass
                self._died(index, "died awaiting its reply")

    def _reply(self, index: int):
        reply = self._recv(index)
        if reply[0] != "ok":
            raise ShardWorkerError(f"shard worker {index}: {reply[1]}")
        return reply[1]

    def _request_all(self, message) -> List:
        """Send one message to every worker, then collect every ack."""
        self._check_open()
        for index in range(self.shards):
            self._send(index, message)
        return [self._reply(index) for index in range(self.shards)]

    def _query(self, name: str, *args, **kwargs) -> List:
        return self._request_all(("query", name, args, kwargs))

    def _check_open(self) -> None:
        if self._closed:
            raise ShardWorkerError("engine is closed")

    # -- ingestion ----------------------------------------------------------

    def process_transaction_batch(self, batch, *,
                                  parallel: bool = True) -> int:
        """Characterize a columnar batch across the worker fleet.

        ``parallel`` is accepted for engine-protocol compatibility; the
        workers always run concurrently (that is the point of the engine).
        """
        self._check_open()
        count = len(batch)
        if count == 0:
            return 0
        context = current_context() if self._trace_batches else None
        trace = context.to_tuple() if context is not None else None
        work = route_batch(batch, self.shards)
        for index, (item_work, pair_work) in enumerate(work):
            self._send(index, ("process", item_work, pair_work, trace))
        evicted_by_shard = []
        for index in range(self.shards):
            evicted, snap = self._reply(index)
            if snap is not None:
                self._worker_snaps[index] = snap
            evicted_by_shard.append(evicted)
        for origin, evicted in enumerate(evicted_by_shard):
            if not evicted:
                continue
            for index in range(self.shards):
                if index != origin:
                    self._send(index, ("demote", evicted))
        self._transactions += count
        self._extents_seen += len(batch.starts)
        self._pairs_seen += sum(
            len(pair_work[0]) for _item, pair_work in work
        )
        return count

    # -- merged queries ------------------------------------------------------

    def frequent_pairs(
        self, min_support: int = 2
    ) -> List[Tuple[ExtentPair, int]]:
        return merge_ranked(self._query("frequent_pairs", min_support))

    def frequent_extents(
        self, min_support: int = 2
    ) -> List[Tuple[Extent, int]]:
        return merge_ranked(self._query("frequent_extents", min_support))

    def pair_frequencies(self) -> Dict[ExtentPair, int]:
        merged: Dict[ExtentPair, int] = {}
        for part in self._query("pair_frequencies"):
            merged.update(part)
        return merged

    def correlated_with(self, extent: Extent, k: int = 16
                        ) -> List[Tuple[Extent, int]]:
        """Partners most correlated with ``extent``: one query round over
        the fleet, each partner's best count, top ``k``."""
        return merge_partners(self._query("correlated_with", extent, k), k)

    def frequent_pairs_of_kind(
        self,
        kind: CorrelationKind,
        min_support: int = 2,
        purity: float = 0.5,
    ) -> List[Tuple[ExtentPair, int]]:
        return merge_ranked(
            self._query("frequent_pairs_of_kind", kind, min_support, purity)
        )

    def read_correlations(self, min_support: int = 2):
        return self.frequent_pairs_of_kind(CorrelationKind.READ, min_support)

    def write_correlations(self, min_support: int = 2):
        return self.frequent_pairs_of_kind(CorrelationKind.WRITE, min_support)

    def kind_summary(self) -> Dict[CorrelationKind, int]:
        summary = {kind: 0 for kind in CorrelationKind}
        for part in self._query("kind_summary"):
            for kind, value in part.items():
                summary[kind] += value
        return summary

    def type_tally(self, pair: ExtentPair) -> Optional[TypeTally]:
        index = int(shard_of_columns(
            (np.asarray([pair.first.start]), np.asarray([pair.first.length]),
             np.asarray([pair.second.start]),
             np.asarray([pair.second.length])),
            self.shards,
        )[0])
        self._check_open()
        self._send(index, ("query", "type_tally", (pair,), {}))
        return self._reply(index)

    # -- state transfer ------------------------------------------------------

    @property
    def shard_backends(self) -> List:
        """Materialize every worker's synopsis backend in this process.

        Checkpoint v4 (:func:`~repro.engine.checkpoint.dump_engine`)
        iterates this; the returned backends are *copies* deserialized
        from the workers' payloads -- mutating them does not affect the
        workers.
        """
        return [
            deserialize_backend(self.backend_name, payload, self._per_shard)
            for payload in self._request_all(("fetch",))
        ]

    def adopt_backends(self, backends: Sequence) -> None:
        """Ship restored per-shard backends into the workers (in order)."""
        if len(backends) != self.shards:
            raise ValueError(
                f"got {len(backends)} shard backends for "
                f"{self.shards} workers"
            )
        for backend in backends:
            if backend.name != self.backend_name:
                raise ValueError(
                    f"cannot adopt a {backend.name!r} backend into a "
                    f"{self.backend_name!r} engine"
                )
        self._check_open()
        for index, backend in enumerate(backends):
            self._send(index, ("adopt", backend.serialize()))
        for index in range(self.shards):
            self._reply(index)

    def adopt(self, other) -> None:
        """Take over another sharded host's learned state: its backends
        go into the live workers, its flow counters into the engine."""
        self.adopt_backends(other.shard_backends)
        report = other.report()
        self._transactions = report.transactions
        self._extents_seen = report.extents_seen
        self._pairs_seen = report.pairs_seen

    # -- reporting and lifecycle ---------------------------------------------

    def report(self) -> AnalyzerReport:
        """Aggregate counters merged across every worker shard."""
        reports = self._query("report")
        return AnalyzerReport(
            transactions=self._transactions,
            extents_seen=self._extents_seen,
            pairs_seen=self._pairs_seen,
            item_stats=merged_stats(r.item_stats for r in reports),
            correlation_stats=merged_stats(
                r.correlation_stats for r in reports
            ),
        )

    def shard_occupancy(self) -> List[Tuple[int, int]]:
        """Resident ``(items, pairs)`` per worker shard."""
        return self._request_all(("occupancy",))

    def reset(self) -> None:
        self._request_all(("reset",))
        self._transactions = 0
        self._extents_seen = 0
        self._pairs_seen = 0

    def close(self, timeout: float = 5.0) -> None:
        """Shut the worker fleet down; idempotent, tolerates dead workers."""
        if self._closed:
            return
        self._closed = True
        for index, conn in enumerate(self._conns):
            if self._procs[index].is_alive():
                try:
                    conn.send(("close",))
                except (BrokenPipeError, OSError):
                    pass
        for proc in self._procs:
            proc.join(timeout=timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=timeout)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._release_metrics()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def worker_deaths(self) -> int:
        """Workers that died mid-protocol (also a telemetry counter)."""
        return self._worker_deaths

    def workers_alive(self) -> List[bool]:
        """Liveness of each shard worker (diagnostics)."""
        return [proc.is_alive() for proc in self._procs]

    def __enter__(self) -> "ProcessShardedAnalyzer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            if not getattr(self, "_closed", True):
                self.close(timeout=0.5)
        except Exception:
            pass
