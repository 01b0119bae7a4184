"""The online analysis module (paper Section III-D).

A single pass over the transaction stream maintains the synopsis: every
extent of a transaction is recorded in the item table, every unique extent
pair in the correlation table, and item-table evictions demote the pairs
that involve the evicted extent.  The per-transaction cost is Θ(N²) for N
extents, which the monitoring module bounds by capping transactions at a
configurable size (8 in the paper's evaluation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..telemetry.metrics import MetricsRegistry, get_default_registry
from .config import AnalyzerConfig
from .correlation_table import CorrelationTable
from .extent import Extent, ExtentInterner, ExtentPair, unique_pairs
from .item_table import ItemTable
from .two_tier import TableStats


@dataclass
class AnalyzerReport:
    """Aggregate counters over an analyzer's lifetime."""

    transactions: int = 0
    extents_seen: int = 0
    pairs_seen: int = 0
    item_stats: TableStats = field(default_factory=TableStats)
    correlation_stats: TableStats = field(default_factory=TableStats)


class OnlineAnalyzer:
    """Single-pass data access characterization over extent transactions.

    The analyzer is deliberately decoupled from the monitoring module: it
    accepts any sequence of :class:`Extent` objects as one transaction, so
    it can be driven by the live monitor, by recorded transactions, or by
    synthetic streams in tests.
    """

    def __init__(
        self,
        config: Optional[AnalyzerConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        metric_labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        """``registry`` selects the telemetry registry (``None``: the
        process-local default).  ``metric_labels`` adds constant labels
        to every published sample -- the sharded engine passes
        ``{"shard": "<i>"}`` so per-shard series stay distinguishable.
        """
        self.config = config or AnalyzerConfig()
        item_t1, item_t2 = self.config.split(self.config.item_capacity)
        corr_t1, corr_t2 = self.config.split(self.config.correlation_capacity)
        self.items = ItemTable(item_t1, item_t2, self.config.promote_threshold)
        self.correlations = CorrelationTable(
            corr_t1, corr_t2, self.config.promote_threshold
        )
        self._transactions = 0
        self._extents_seen = 0
        self._pairs_seen = 0
        self._interner = ExtentInterner()
        self._bind_metrics(registry, metric_labels)

    # -- telemetry ----------------------------------------------------------

    #: Counter families derived 1:1 from TableStats fields.
    _TABLE_STAT_HELP = {
        "lookups": "Synopsis table lookups",
        "t1_hits": "Lookups that hit tier T1",
        "t2_hits": "Lookups that hit tier T2",
        "misses": "Lookups that missed both tiers",
        "promotions": "Entries promoted T1 -> T2",
        "t1_evictions": "Entries evicted from T1",
        "t2_evictions": "Entries evicted from T2",
        "demotions": "Entries demoted to their tier's LRU end",
    }

    def _bind_metrics(
        self,
        registry: Optional[MetricsRegistry],
        metric_labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        registry = registry if registry is not None else \
            get_default_registry()
        self.registry = registry
        if not registry.enabled:
            return
        shard = str((metric_labels or {}).get("shard", ""))
        table_labels = ("table", "shard")
        self._stat_children = {}
        for name, help in self._TABLE_STAT_HELP.items():
            family = registry.counter(
                f"repro_synopsis_{name}_total", help, labelnames=table_labels
            )
            for table in ("items", "correlations"):
                self._stat_children[(table, name)] = family.labels(
                    table=table, shard=shard
                )
        occupancy = registry.gauge(
            "repro_synopsis_occupancy",
            "Resident entries per synopsis tier",
            labelnames=("table", "tier", "shard"),
        )
        capacity = registry.gauge(
            "repro_synopsis_capacity",
            "Configured entries per synopsis tier",
            labelnames=("table", "tier", "shard"),
        )
        self._tier_gauges = {}
        for table in ("items", "correlations"):
            for tier in ("t1", "t2"):
                self._tier_gauges[(table, tier)] = (
                    occupancy.labels(table=table, tier=tier, shard=shard),
                    capacity.labels(table=table, tier=tier, shard=shard),
                )
        counters = {
            "transactions": "Transactions characterized",
            "extents": "Distinct extents recorded (post-dedup)",
            "pairs": "Extent pairs recorded",
        }
        self._flow_counters = {
            name: registry.counter(
                f"repro_analyzer_{name}_total", help, labelnames=("shard",)
            ).labels(shard=shard)
            for name, help in counters.items()
        }
        registry.register_collector(self._collect_metrics)

    def rebind_metrics(
        self,
        registry: MetricsRegistry,
        metric_labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Re-home this analyzer's telemetry on ``registry``.

        A checkpoint restore constructs the loaded analyzer against the
        process default registry; the adopting service calls this so the
        restored tables publish into *its* registry.  No-op when already
        bound there.
        """
        if registry is self.registry:
            return
        self._bind_metrics(registry, metric_labels)

    def _collect_metrics(self) -> None:
        """Publish table and flow counters into the registry (pull seam)."""
        for table_name in ("items", "correlations"):
            table = getattr(self, table_name)
            for name, value in table.stats.as_dict().items():
                self._stat_children[(table_name, name)].set_total(value)
            for tier_name in ("t1", "t2"):
                tier = getattr(table, tier_name)
                occupancy, capacity = self._tier_gauges[
                    (table_name, tier_name)
                ]
                occupancy.set(len(tier))
                capacity.set(tier.capacity)
        self._flow_counters["transactions"].set_total(self._transactions)
        self._flow_counters["extents"].set_total(self._extents_seen)
        self._flow_counters["pairs"].set_total(self._pairs_seen)

    # -- stream processing ------------------------------------------------------

    def process(self, extents: Sequence[Extent]) -> None:
        """Process one transaction's extents.

        Duplicates are collapsed (the monitor already deduplicates, but the
        analyzer tolerates raw input), each distinct extent is recorded in
        the item table, and every unique pair is recorded in the correlation
        table.  Item-table evictions trigger correlation-table demotions.
        """
        distinct = sorted(set(extents))
        self._transactions += 1
        self._extents_seen += len(distinct)

        for extent in distinct:
            result = self.items.access(extent)
            if self.config.demote_on_item_eviction:
                for evicted in self.items.evicted_from(result):
                    self.correlations.demote_involving(evicted)

        for pair in unique_pairs(distinct):
            self.correlations.access(pair)
            self._pairs_seen += 1

    def process_stream(self, transactions: Iterable[Sequence[Extent]]) -> None:
        """Process a whole stream of transactions."""
        for extents in transactions:
            self.process(extents)

    def process_transaction_batch(self, batch, *,
                                  parallel: bool = False) -> int:
        """Process a columnar :class:`~repro.monitor.batch.TransactionBatch`.

        The batch's distinct view is already deduplicated and sorted per
        transaction -- exactly the iteration order of :meth:`process` -- so
        this loop performs the same table accesses in the same order and
        leaves the synopsis byte-identical to feeding the materialized
        transactions one at a time.  The speed comes from skipping object
        materialization: extents are interned straight from the integer
        columns, and the allocation-light ``access_fast`` table operation
        replaces :class:`~repro.core.two_tier.AccessResult` construction.
        ``parallel`` is accepted for engine-protocol compatibility and
        ignored.
        """
        starts = batch.starts.tolist()
        lengths = batch.lengths.tolist()
        offsets = batch.offsets.tolist()
        intern_extent = self._interner.extent
        intern_pair = self._interner.pair
        items_access = self.items.access_fast
        corr_access = self.correlations.access_fast
        demote = self.config.demote_on_item_eviction
        demote_involving = self.correlations.demote_involving
        count = len(offsets) - 1
        extents_seen = 0
        pairs_seen = 0
        for t in range(count):
            lo = offsets[t]
            hi = offsets[t + 1]
            extents = [intern_extent(starts[k], lengths[k])
                       for k in range(lo, hi)]
            n = hi - lo
            extents_seen += n
            for extent in extents:
                evicted = items_access(extent)
                if demote and evicted is not None:
                    demote_involving(evicted)
            if n > 1:
                pairs_seen += n * (n - 1) // 2
                for i in range(n - 1):
                    a = extents[i]
                    for j in range(i + 1, n):
                        corr_access(intern_pair(a, extents[j]))
        self._transactions += count
        self._extents_seen += extents_seen
        self._pairs_seen += pairs_seen
        return count

    # -- results ------------------------------------------------------------------

    def frequent_pairs(self, min_support: int = 2) -> List[Tuple[ExtentPair, int]]:
        """Detected correlations with tally >= ``min_support``, strongest first."""
        return self.correlations.frequent(min_support)

    def frequent_extents(self, min_support: int = 2) -> List[Tuple[Extent, int]]:
        """Frequent individual extents, strongest first."""
        return self.items.frequent(min_support)

    def pair_frequencies(self) -> Dict[ExtentPair, int]:
        """Every resident pair and its tally."""
        return self.correlations.frequencies()

    def correlated_with(self, extent: Extent, k: int = 16
                        ) -> List[Tuple[Extent, int]]:
        """Partners most correlated with ``extent``, strongest first.

        This is the query-path a correlation-driven prefetcher issues on
        every cache miss (paper Section I / Section V), so it rides the
        correlation table's per-extent index rather than scanning every
        resident pair.
        """
        tally_of = self.correlations.tally
        ranked = sorted(
            ((pair.other(extent), tally_of(pair) or 0)
             for pair in self.correlations.pairs_involving(extent)),
            key=lambda entry: (-entry[1], entry[0]),
        )
        return ranked[:k]

    def report(self) -> AnalyzerReport:
        return AnalyzerReport(
            transactions=self._transactions,
            extents_seen=self._extents_seen,
            pairs_seen=self._pairs_seen,
            item_stats=self.items.stats,
            correlation_stats=self.correlations.stats,
        )

    def adopt(self, other: "OnlineAnalyzer") -> None:
        """Take over another analyzer's learned state (tables and config).

        The public restore hook: after :func:`~repro.core.serialize.\
load_analyzer` rebuilds a plain analyzer from a checkpoint, a richer
        analyzer (e.g. :class:`~repro.core.typed.TypedOnlineAnalyzer`)
        adopts its synopsis wholesale instead of callers poking table
        internals.  ``other`` donates its tables; it must not be used
        afterwards.
        """
        self.config = other.config
        self.items = other.items
        self.correlations = other.correlations
        self._transactions = other._transactions
        self._extents_seen = other._extents_seen
        self._pairs_seen = other._pairs_seen

    def reset(self) -> None:
        """Forget everything (tables, table stats and counters)."""
        self.items.clear()
        self.correlations.clear()
        self._transactions = 0
        self._extents_seen = 0
        self._pairs_seen = 0
