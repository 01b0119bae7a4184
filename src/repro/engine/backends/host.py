"""In-process host engine for sharded synopsis backends.

:class:`BackendEngine` hosts 1..N backend instances -- the paper's
two-tier tables, Correlated Heavy Hitters or a count-min pair sketch --
and is the only in-process sharded engine:

* the **item table** is partitioned by ``hash(extent) % N``;
* the **correlation table** is partitioned by ``hash(pair) % N`` -- a
  pair's home shard is *not* derived from its members' home shards, so
  the pair population spreads evenly even when a few extents dominate;
* each shard is sized at ``capacity / N`` (:func:`shard_config`), so N
  shards cost the same total memory as one synopsis at ``capacity``;
* the eviction-demotion coupling rule (Section III-D2) crosses shards:
  when a shard's item table evicts an extent, pairs involving it may sit
  in *any* shard, so the demotion is routed to every shard.

Each pair update carries its R/W mix, the op-code sum of its two members
(read=0, write=1: 0 read/read, 1 mixed, 2 write/write), so a two-tier
shard keeps the typed sidecar exactly as
:class:`~repro.core.typed.TypedOnlineAnalyzer` does.  One two-tier shard
performs the same table operations in the same order as a single typed
analyzer and is therefore tally-identical to it on any stream.  With
N > 1 the partitioned LRU state diverges slightly from the single table
(each shard evicts locally), but hot pairs land in the same shards
consistently and survive.

Queries merge across shards; since shards partition the key space, their
result sets are disjoint and merging is a ranked union.

Shards run serially in the caller's thread.  The process-backed
equivalent is :class:`~repro.engine.procshard.ProcessShardedAnalyzer`,
one backend per worker process.

Telemetry: the engine publishes the engine flow counters, per-shard
occupancy and imbalance gauges, and per-backend gauges
(``repro_backend_memory_bytes`` and tracked-entry occupancy) labelled
with the backend name; two-tier shards publish their table counters
under a ``shard="<i>"`` label.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from dataclasses import replace as dataclasses_replace
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ...core.analyzer import AnalyzerReport
from ...core.config import AnalyzerConfig
from ...core.extent import (
    Extent,
    ExtentPair,
    extent_of_row,
    pair_of_ordered,
    unique_pairs,
)
from ...core.two_tier import TableStats, rank
from ...core.typed import CorrelationKind, TypeTally
from ...monitor.batch import _OP_TO_CODE
from ...telemetry.metrics import MetricsRegistry, get_default_registry
from . import create_backend
from .base import BackendBase


def shard_config(config: AnalyzerConfig, shards: int) -> AnalyzerConfig:
    """The per-shard configuration: ``capacity / N`` tables (ceil), same
    promotion threshold and tier split, so N shards together hold at least
    the single-analyzer entry count.

    Sketch-backend dimensions scale the same way: explicitly-set sizes
    (``chh_items``, ``cms_width``, ``cms_candidates``) divide by N so the
    total footprint is invariant in the shard count, while auto-derived
    sizes (left at 0) follow the already-divided correlation capacity.
    Per-entry knobs (``chh_partners``, ``cms_depth``) pass through
    unchanged.  Every other field is copied verbatim via
    :func:`dataclasses.replace`, so new configuration fields survive
    per-shard derivation by default.
    """

    def ceil_div(value: int) -> int:
        return max(1, -(-value // shards))

    return dataclasses_replace(
        config,
        item_capacity=ceil_div(config.item_capacity),
        correlation_capacity=ceil_div(config.correlation_capacity),
        chh_items=ceil_div(config.chh_items) if config.chh_items else 0,
        cms_width=ceil_div(config.cms_width) if config.cms_width else 0,
        cms_candidates=(ceil_div(config.cms_candidates)
                        if config.cms_candidates else 0),
    )


def merged_stats(parts: Iterable[TableStats]) -> TableStats:
    """Field-wise sum of per-shard table stats."""
    merged = TableStats()
    for part in parts:
        for field in dataclass_fields(TableStats):
            setattr(merged, field.name,
                    getattr(merged, field.name) + getattr(part, field.name))
    return merged


def merge_ranked(parts: Iterable[List[Tuple]]) -> List[Tuple]:
    """Union of per-shard ranked ``(key, count)`` lists, best first."""
    merged: List[Tuple] = []
    for part in parts:
        merged.extend(part)
    return rank(merged)


def merge_partners(parts: Iterable[List[Tuple[Extent, int]]],
                   k: int) -> List[Tuple[Extent, int]]:
    """Merge per-shard ``correlated_with`` answers: each partner keeps its
    best count (sketch shards may report one partner twice), top ``k``."""
    best: Dict[Extent, int] = {}
    for part in parts:
        for partner, count in part:
            if count > best.get(partner, 0):
                best[partner] = count
    return rank(list(best.items()))[:k]


class BackendEngine:
    """1..N synopsis backend shards behind the engine interface."""

    def __init__(
        self,
        config: Optional[AnalyzerConfig] = None,
        shards: int = 1,
        registry: Optional[MetricsRegistry] = None,
        backends: Optional[Sequence[BackendBase]] = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.config = config or AnalyzerConfig()
        self.backend_name = self.config.backend
        if backends is not None:
            if len(backends) != shards:
                raise ValueError(
                    f"got {len(backends)} backends for {shards} shards"
                )
            self._backends: List[BackendBase] = list(backends)
        else:
            per_shard = shard_config(self.config, shards)
            self._backends = [
                create_backend(self.backend_name, per_shard)
                for _ in range(shards)
            ]
        self.shards = shards
        self._transactions = 0
        self._extents_seen = 0
        self._pairs_seen = 0
        self._bind_metrics(
            registry if registry is not None else get_default_registry()
        )

    # -- telemetry ----------------------------------------------------------

    def _bind_metrics(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        for index, backend in enumerate(self._backends):
            backend.bind_metrics(registry, index)
        if not registry.enabled:
            return
        self._shards_gauge = registry.gauge(
            "repro_engine_shards", "Shard count of the synopsis engine"
        )
        self._shard_occupancy_gauge = registry.gauge(
            "repro_engine_shard_occupancy",
            "Resident entries per shard",
            labelnames=("table", "shard"),
        )
        self._imbalance_gauge = registry.gauge(
            "repro_engine_shard_imbalance",
            "Max-over-mean shard occupancy (1.0 = perfectly balanced)",
            labelnames=("table",),
        )
        self._memory_gauge = registry.gauge(
            "repro_backend_memory_bytes",
            "Modelled native bytes of the synopsis backend",
            labelnames=("backend",),
        )
        self._occupancy_gauge = registry.gauge(
            "repro_backend_tracked_entries",
            "Entries tracked by the backend right now",
            labelnames=("backend", "table"),
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
        """Re-home the engine's telemetry (and every shard's) on
        ``registry`` (restore path); no-op when already bound there."""
        if registry is self.registry:
            return
        self._bind_metrics(registry)

    def _collect_metrics(self) -> None:
        self._shards_gauge.set(self.shards)
        self._memory_gauge.labels(backend=self.backend_name).set(
            self.memory_bytes()
        )
        occupancy = self.shard_occupancy()
        for table, counts in (
            ("items", [items for items, _pairs in occupancy]),
            ("correlations", [pairs for _items, pairs in occupancy]),
        ):
            for index, count in enumerate(counts):
                self._shard_occupancy_gauge.labels(
                    table=table, shard=str(index)
                ).set(count)
            mean = sum(counts) / len(counts)
            self._imbalance_gauge.labels(table=table).set(
                max(counts) / mean if mean else 1.0
            )
        self._occupancy_gauge.labels(
            backend=self.backend_name, table="items"
        ).set(sum(items for items, _pairs in occupancy))
        self._occupancy_gauge.labels(
            backend=self.backend_name, table="pairs"
        ).set(sum(pairs for _items, pairs in occupancy))
        self._flow_counters["transactions"].set_total(self._transactions)
        self._flow_counters["extents"].set_total(self._extents_seen)
        self._flow_counters["pairs"].set_total(self._pairs_seen)

    # -- routing and state ----------------------------------------------------

    @property
    def shard_backends(self) -> List[BackendBase]:
        """The per-shard backends (checkpoint format v4 iterates these)."""
        return list(self._backends)

    def adopt(self, other) -> None:
        """Take over another sharded host's learned state -- its backends,
        configuration and flow counters.  ``other`` must host the same
        backend kind on the same shard count and is not used afterwards."""
        backends = other.shard_backends
        if len(backends) != self.shards:
            raise ValueError(
                f"got {len(backends)} shard backends for {self.shards} shards"
            )
        if other.backend_name != self.backend_name:
            raise ValueError(
                f"cannot adopt a {other.backend_name!r} engine into a "
                f"{self.backend_name!r} engine"
            )
        report = other.report()
        self.config = other.config
        self._backends = list(backends)
        for index, backend in enumerate(self._backends):
            backend.bind_metrics(self.registry, index)
        self._transactions = report.transactions
        self._extents_seen = report.extents_seen
        self._pairs_seen = report.pairs_seen

    def shard_of_extent(self, extent: Extent) -> int:
        return hash(extent) % self.shards

    def shard_of_pair(self, pair: ExtentPair) -> int:
        return hash(pair) % self.shards

    # -- ingestion -----------------------------------------------------------

    def process(self, extents: Sequence[Extent]) -> None:
        """Characterize one untyped transaction given as bare extents."""
        self._process(sorted(set(extents)), None)

    def process_typed(self, items) -> None:
        """Characterize one transaction of ``(extent, op)`` items;
        duplicate extents keep their first op, as the monitor does."""
        code_of: Dict[Extent, int] = {}
        for extent, op in items:
            code_of.setdefault(extent, _OP_TO_CODE[op])
        self._process(sorted(code_of), code_of)

    def process_transaction(self, transaction) -> None:
        """Characterize one monitor transaction (typed)."""
        self.process_typed([(event.extent, event.op)
                            for event in transaction.events])

    def process_stream(self, transactions: Iterable[Sequence[Extent]]) -> None:
        for extents in transactions:
            self.process(extents)

    def _process(self, distinct: List[Extent],
                 code_of: Optional[Dict[Extent, int]]) -> None:
        """The sequential per-transaction path: items (with cross-shard
        demotion on eviction), then pairs with their R/W mix (none when
        ``code_of`` is ``None``), in stream order."""
        backends = self._backends
        n = self.shards
        self._transactions += 1
        self._extents_seen += len(distinct)
        for extent in distinct:
            owner = hash(extent) % n
            evicted = backends[owner].update_item(extent)
            if evicted is not None:
                for index in range(n):
                    if index != owner:
                        backends[index].demote_item(evicted)
        pairs = unique_pairs(distinct)
        self._pairs_seen += len(pairs)
        for pair in pairs:
            mix = None if code_of is None else (
                code_of[pair.first] + code_of[pair.second])
            backends[hash(pair) % n].update_pair(pair, mix)

    def process_batch(self, transactions: Iterable) -> int:
        """Characterize a batch of monitor transactions; returns the count."""
        count = 0
        for transaction in transactions:
            self.process_transaction(transaction)
            count += 1
        return count

    def process_transaction_batch(self, batch) -> int:
        """Characterize a columnar :class:`~repro.monitor.batch.\
TransactionBatch`.

        Each distinct extent and pair is routed exactly like
        :meth:`process_typed`, so the result is tally- and stats-identical
        to the object path.
        """
        extents = list(map(extent_of_row, zip(batch.starts.tolist(),
                                              batch.lengths.tolist())))
        ops = batch.ops.tolist()
        offsets = batch.offsets.tolist()
        backends = self._backends
        n = self.shards
        update_item = [backend.update_item for backend in backends]
        update_pair = [backend.update_pair for backend in backends]
        demote_item = [backend.demote_item for backend in backends]
        count = len(offsets) - 1
        pairs_seen = 0
        for t in range(count):
            lo = offsets[t]
            hi = offsets[t + 1]
            transaction = extents[lo:hi]
            for extent in transaction:
                owner = hash(extent) % n
                evicted = update_item[owner](extent)
                if evicted is not None:
                    for index in range(n):
                        if index != owner:
                            demote_item[index](evicted)
            m = hi - lo
            if m > 1:
                pairs_seen += m * (m - 1) // 2
                mixes = map(sum, combinations(ops[lo:hi], 2))
                for pair, mix in zip(map(pair_of_ordered,
                                         combinations(transaction, 2)),
                                     mixes):
                    update_pair[hash(pair) % n](pair, mix)
        self._transactions += count
        self._extents_seen += len(extents)
        self._pairs_seen += pairs_seen
        return count

    # -- merged queries ------------------------------------------------------

    def frequent_pairs(self, min_support: int = 2
                       ) -> List[Tuple[ExtentPair, int]]:
        return merge_ranked(backend.frequent_pairs(min_support)
                            for backend in self._backends)

    def top_pairs(self, k: int = 100, min_support: int = 1
                  ) -> List[Tuple[ExtentPair, int]]:
        return merge_ranked(backend.top_pairs(k, min_support)
                            for backend in self._backends)[:k]

    def correlated_with(self, extent: Extent, k: int = 16
                        ) -> List[Tuple[Extent, int]]:
        """Partners most correlated with ``extent``, strongest first.

        Pairs are routed by pair hash, so an extent's partners may live
        on any shard; every shard's (indexed) answer is merged.
        """
        return merge_partners(
            (backend.correlated_with(extent, k) for backend in self._backends),
            k,
        )

    def frequent_extents(self, min_support: int = 2
                         ) -> List[Tuple[Extent, int]]:
        return merge_ranked(backend.frequent_extents(min_support)
                            for backend in self._backends)

    def pair_frequencies(self) -> Dict[ExtentPair, int]:
        merged: Dict[ExtentPair, int] = {}
        for backend in self._backends:
            merged.update(backend.pair_frequencies())
        return merged

    def frequent_pairs_of_kind(self, kind: CorrelationKind,
                               min_support: int = 2, purity: float = 0.5
                               ) -> List[Tuple[ExtentPair, int]]:
        return merge_ranked(
            backend.frequent_pairs_of_kind(kind, min_support, purity)
            for backend in self._backends
        )

    def read_correlations(self, min_support: int = 2):
        return self.frequent_pairs_of_kind(CorrelationKind.READ, min_support)

    def write_correlations(self, min_support: int = 2):
        return self.frequent_pairs_of_kind(CorrelationKind.WRITE, min_support)

    def kind_summary(self) -> Dict[CorrelationKind, int]:
        summary = {kind: 0 for kind in CorrelationKind}
        for backend in self._backends:
            for kind, value in backend.kind_summary().items():
                summary[kind] += value
        return summary

    def type_tally(self, pair: ExtentPair) -> Optional[TypeTally]:
        return self._backends[hash(pair) % self.shards].type_tally(pair)

    # -- reporting and lifecycle ---------------------------------------------

    def memory_bytes(self) -> int:
        return sum(backend.memory_bytes() for backend in self._backends)

    def shard_occupancy(self) -> List[Tuple[int, int]]:
        """Resident ``(items, pairs)`` per shard -- balance diagnostics."""
        return [backend.occupancy() for backend in self._backends]

    def report(self) -> AnalyzerReport:
        """Engine flow counters plus table stats merged across shards."""
        reports = [backend.report() for backend in self._backends]
        return AnalyzerReport(
            transactions=self._transactions,
            extents_seen=self._extents_seen,
            pairs_seen=self._pairs_seen,
            item_stats=merged_stats(r.item_stats for r in reports),
            correlation_stats=merged_stats(
                r.correlation_stats for r in reports
            ),
        )

    def reset(self) -> None:
        for backend in self._backends:
            backend.reset()
        self._transactions = 0
        self._extents_seen = 0
        self._pairs_seen = 0
