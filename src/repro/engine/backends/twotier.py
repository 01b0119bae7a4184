"""The paper's two-tier tables wrapped as the reference backend.

This is the exact synopsis of Sections III-D/IV-C -- a
:class:`~repro.core.typed.TypedOnlineAnalyzer` with its item and
correlation LRU table pairs, the eviction-demotion coupling and the R/W
type sidecar -- presented through the :class:`~.base.SynopsisBackend`
surface, so the hosting engines (in-process and process shards) and the
Pareto benchmark run it interchangeably with the sketch backends.
It is the accuracy ceiling of the trio (explicit pairs, recency-aware)
and the memory floor nothing sublinear can match: ``88 C`` bytes at
capacity ``C`` versus the sketches' fractions of that.

Every primitive update counts itself in the analyzer's flow counters, so
a shard's ``repro_analyzer_{extents,pairs}_total{shard="<i>"}`` series
report what that shard applied, and the shards sum to the engine totals.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, List, Optional, Sequence, Tuple

from ...core.analyzer import AnalyzerReport
from ...core.config import AnalyzerConfig
from ...core.extent import Extent, ExtentPair, extent_of_row, pair_of_ordered
from ...core.memory_model import two_tier_backend_bytes
from ...core.serialize import dumps_analyzer, loads_analyzer
from ...core.typed import CorrelationKind, TypedOnlineAnalyzer, TypeTally
from ...telemetry import NULL_REGISTRY
from .base import BackendBase, pairs_of_columns

_U32 = struct.Struct("<I")


def _side_state(analyzer: TypedOnlineAnalyzer) -> Tuple:
    """Analyzer state the v2 envelope does not carry: typed sidecar rows,
    table stats, and flow counters."""
    return (
        [(pair.first.start, pair.first.length,
          pair.second.start, pair.second.length,
          tally.read, tally.write, tally.mixed)
         for pair, tally in analyzer._types.items()],
        analyzer.items.stats.as_dict(),
        analyzer.correlations.stats.as_dict(),
        (analyzer._transactions, analyzer._extents_seen,
         analyzer._pairs_seen),
    )


def _restore_side_state(analyzer: TypedOnlineAnalyzer, side: Sequence) -> None:
    rows, item_stats, corr_stats, counters = side
    analyzer._types = {
        pair_of_ordered((extent_of_row((a_start, a_length)),
                         extent_of_row((b_start, b_length)))):
        TypeTally(read=read, write=write, mixed=mixed)
        for a_start, a_length, b_start, b_length, read, write, mixed in rows
    }
    for name, value in item_stats.items():
        setattr(analyzer.items.stats, name, value)
    for name, value in corr_stats.items():
        setattr(analyzer.correlations.stats, name, value)
    (analyzer._transactions, analyzer._extents_seen,
     analyzer._pairs_seen) = counters


class TwoTierBackend(BackendBase):
    """Reference backend: the two-tier LRU item/correlation tables."""

    name = "two-tier"

    def __init__(self, config: Optional[AnalyzerConfig] = None,
                 analyzer: Optional[TypedOnlineAnalyzer] = None) -> None:
        super().__init__(config)
        if analyzer is None:
            analyzer = TypedOnlineAnalyzer(self.config,
                                           registry=NULL_REGISTRY)
        self.analyzer = analyzer

    def bind_metrics(self, registry, shard: int) -> None:
        self.analyzer.rebind_metrics(registry, {"shard": str(shard)})

    # -- primitive updates -------------------------------------------------

    def update_item(self, extent: Extent) -> Optional[Extent]:
        analyzer = self.analyzer
        analyzer._extents_seen += 1
        evicted = analyzer.items.access_fast(extent)
        if evicted is not None and analyzer.config.demote_on_item_eviction:
            analyzer.correlations.demote_involving(evicted)
            return evicted
        return None

    def update_pair(self, pair: ExtentPair, mix: Optional[int] = None
                    ) -> None:
        analyzer = self.analyzer
        analyzer._pairs_seen += 1
        evicted_pair = analyzer.correlations.access_fast(pair)
        types = analyzer._types
        if evicted_pair is not None:
            types.pop(evicted_pair, None)
        if mix is None:
            return
        tally = types.get(pair)
        if tally is None:
            types[pair] = tally = TypeTally()
        if mix == 0:
            tally.read += 1
        elif mix == 2:
            tally.write += 1
        else:
            tally.mixed += 1

    def demote_item(self, extent: Extent) -> None:
        self.analyzer.correlations.demote_involving(extent)

    def apply_shard_work(
        self,
        item_starts,
        item_lengths,
        a_starts,
        a_lengths,
        b_starts,
        b_lengths,
        mixes,
    ) -> List[Tuple[int, int]]:
        """Apply one shard's routed columnar work (the process worker's
        loop): items first (with local eviction demotion), then pairs with
        their R/W mix.  Returns the item-table evictions as
        ``(start, length)`` tuples for cross-shard demotion."""
        analyzer = self.analyzer
        items_access = analyzer.items.access_fast
        corr_access = analyzer.correlations.access_fast
        demote = analyzer.config.demote_on_item_eviction
        demote_involving = analyzer.correlations.demote_involving
        evicted_out: List[Tuple[int, int]] = []

        for extent in map(extent_of_row, zip(item_starts.tolist(),
                                             item_lengths.tolist())):
            evicted = items_access(extent)
            if demote and evicted is not None:
                demote_involving(evicted)
                evicted_out.append((evicted.start, evicted.length))

        types = analyzer._types
        types_get = types.get
        types_pop = types.pop
        for pair, mix in zip(pairs_of_columns(a_starts, a_lengths,
                                              b_starts, b_lengths),
                             mixes.tolist()):
            evicted_pair = corr_access(pair)
            if evicted_pair is not None:
                types_pop(evicted_pair, None)
            tally = types_get(pair)
            if tally is None:
                types[pair] = tally = TypeTally()
            if mix == 0:
                tally.read += 1
            elif mix == 2:
                tally.write += 1
            else:
                tally.mixed += 1
        analyzer._extents_seen += len(item_starts)
        analyzer._pairs_seen += len(a_starts)
        return evicted_out

    # -- standalone ingest (exact analyzer semantics, typed sidecar) -------

    def process(self, extents) -> None:
        self.analyzer.process(extents)

    def process_transaction(self, transaction) -> None:
        self.analyzer.process_transaction(transaction)

    def process_transaction_batch(self, batch) -> int:
        return self.analyzer.process_transaction_batch(batch)

    # -- queries -----------------------------------------------------------

    def frequent_pairs(self, min_support: int = 2
                       ) -> List[Tuple[ExtentPair, int]]:
        return self.analyzer.frequent_pairs(min_support)

    def frequent_extents(self, min_support: int = 2
                         ) -> List[Tuple[Extent, int]]:
        return self.analyzer.frequent_extents(min_support)

    def pair_frequencies(self) -> Dict[ExtentPair, int]:
        return self.analyzer.pair_frequencies()

    def correlated_with(self, extent: Extent, k: int = 16
                        ) -> List[Tuple[Extent, int]]:
        return self.analyzer.correlated_with(extent, k)

    def frequent_pairs_of_kind(self, kind: CorrelationKind,
                               min_support: int = 2, purity: float = 0.5
                               ) -> List[Tuple[ExtentPair, int]]:
        return self.analyzer.frequent_pairs_of_kind(
            kind, min_support, purity
        )

    def kind_summary(self) -> Dict[CorrelationKind, int]:
        return self.analyzer.kind_summary()

    def type_tally(self, pair: ExtentPair) -> Optional[TypeTally]:
        return self.analyzer.type_tally(pair)

    # -- accounting and lifecycle ------------------------------------------

    def memory_bytes(self) -> int:
        return two_tier_backend_bytes(self.config)

    def occupancy(self) -> Tuple[int, int]:
        return len(self.analyzer.items), len(self.analyzer.correlations)

    def report(self) -> AnalyzerReport:
        return self.analyzer.report()

    def merge(self, other: "TwoTierBackend") -> None:
        raise NotImplementedError(
            "two-tier tables have no well-defined LRU merge; "
            "query-time union across shards is the supported composition"
        )

    def serialize(self) -> bytes:
        """A v2 synopsis envelope framed with the side state it cannot
        carry (typed sidecar, table stats, flow counters)."""
        blob = dumps_analyzer(self.analyzer)
        side = json.dumps(
            _side_state(self.analyzer), separators=(",", ":")
        ).encode("utf-8")
        return _U32.pack(len(blob)) + blob + side

    @classmethod
    def deserialize(cls, payload: bytes,
                    config: Optional[AnalyzerConfig] = None
                    ) -> "TwoTierBackend":
        (blob_len,) = _U32.unpack_from(payload)
        blob = payload[_U32.size:_U32.size + blob_len]
        side = json.loads(
            payload[_U32.size + blob_len:].decode("utf-8")
        )
        restored = loads_analyzer(blob)
        typed = TypedOnlineAnalyzer(restored.config, registry=NULL_REGISTRY)
        typed.adopt(restored)
        _restore_side_state(typed, side)
        # The engine-level config (with backend fields) wins over the one
        # reconstructed from the v2 header, which only carries capacities.
        return cls(config=config or restored.config, analyzer=typed)

    def reset(self) -> None:
        super().reset()
        self.analyzer.reset()
