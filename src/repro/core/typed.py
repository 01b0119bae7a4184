"""Correlation types: read/write-aware online analysis.

Section II-A notes that beyond the correlations themselves, "various
additional information can also be extracted from storage workloads such as
correlation strengths (frequency) and types (R/W), which can lead to better
optimizations" -- and Section V depends on it: the multi-stream GC
optimizer consumes *write* correlations (similar death times) while the
open-channel placer consumes *read* correlations (parallel access).

:class:`TypedOnlineAnalyzer` extends the online analyzer to tag each pair
occurrence with the operation mix of the transaction it came from, so the
synopsis can be queried for read-correlated, write-correlated, or mixed
pairs.  The sidecar type counts are bounded by correlation-table residency:
when a pair is evicted, its type history goes with it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..trace.record import OpType
from .analyzer import OnlineAnalyzer
from .config import AnalyzerConfig
from .extent import (
    Extent,
    ExtentPair,
    extent_of_row,
    pair_of_ordered,
    unique_pairs,
)


class CorrelationKind(enum.Enum):
    """Operation mix of one pair occurrence (or of its history)."""

    READ = "read"     # both members read
    WRITE = "write"   # both members written
    MIXED = "mixed"   # one read, one write


@dataclass(slots=True)
class TypeTally:
    """Per-pair occurrence counts by operation mix."""

    read: int = 0
    write: int = 0
    mixed: int = 0

    @property
    def total(self) -> int:
        return self.read + self.write + self.mixed

    def bump(self, kind: CorrelationKind) -> None:
        if kind is CorrelationKind.READ:
            self.read += 1
        elif kind is CorrelationKind.WRITE:
            self.write += 1
        else:
            self.mixed += 1

    def dominant(self) -> CorrelationKind:
        """The most common mix, ties broken read > write > mixed."""
        best = max(self.read, self.write, self.mixed)
        if self.read == best:
            return CorrelationKind.READ
        if self.write == best:
            return CorrelationKind.WRITE
        return CorrelationKind.MIXED


TypedItem = Tuple[Extent, OpType]


def _pair_kind(a: OpType, b: OpType) -> CorrelationKind:
    if a is OpType.READ and b is OpType.READ:
        return CorrelationKind.READ
    if a is OpType.WRITE and b is OpType.WRITE:
        return CorrelationKind.WRITE
    return CorrelationKind.MIXED


class TypedOnlineAnalyzer(OnlineAnalyzer):
    """An online analyzer that also tracks R/W correlation types.

    Accepts transactions of ``(extent, op)`` items via
    :meth:`process_typed` (or monitor transactions via
    :meth:`process_transaction`).  Untyped :meth:`process` still works and
    counts occurrences without type information.
    """

    def __init__(
        self,
        config: Optional[AnalyzerConfig] = None,
        registry=None,
        metric_labels=None,
    ) -> None:
        super().__init__(config, registry=registry,
                         metric_labels=metric_labels)
        self._types: Dict[ExtentPair, TypeTally] = {}

    # -- typed stream processing ---------------------------------------------

    def process_typed(self, items: Sequence[TypedItem]) -> None:
        """Process one transaction of ``(extent, op)`` items.

        Duplicate extents collapse to their first operation (matching the
        monitor's keep-first deduplication).  The item and correlation
        tables update exactly as in the base analyzer; additionally each
        pair's :class:`TypeTally` records the operation mix.
        """
        op_of: Dict[Extent, OpType] = {}
        for extent, op in items:
            op_of.setdefault(extent, op)
        distinct = sorted(op_of)

        self._transactions += 1
        self._extents_seen += len(distinct)

        for extent in distinct:
            result = self.items.access(extent)
            if self.config.demote_on_item_eviction:
                for evicted in self.items.evicted_from(result):
                    self.correlations.demote_involving(evicted)

        for pair in unique_pairs(distinct):
            result = self.correlations.access(pair)
            self._pairs_seen += 1
            for evicted_pair, _tally, _tier in result.evicted:
                self._types.pop(evicted_pair, None)
            tally = self._types.setdefault(pair, TypeTally())
            tally.bump(_pair_kind(op_of[pair.first], op_of[pair.second]))

    def process_transaction(self, transaction) -> None:
        """Process a monitor :class:`~repro.monitor.Transaction`."""
        self.process_typed([
            (event.extent, event.op) for event in transaction.events
        ])

    def process_batch(self, transactions: Iterable) -> int:
        """Process monitor transactions as one batch; returns the count.

        Exactly equivalent to calling :meth:`process_transaction` once per
        transaction -- same table operations in the same order -- but with
        the per-call attribute lookups, counter updates, and per-pair tally
        allocations hoisted out of the loop.
        """
        items_access = self.items.access
        corr_access = self.correlations.access
        demote = self.config.demote_on_item_eviction
        demote_involving = self.correlations.demote_involving
        types = self._types
        types_get = types.get
        types_pop = types.pop
        count = 0
        extents_seen = 0
        pairs_seen = 0
        for transaction in transactions:
            count += 1
            op_of: Dict[Extent, OpType] = {}
            keep_first = op_of.setdefault
            for event in transaction.events:
                keep_first(event.extent, event.op)
            distinct = sorted(op_of)
            extents_seen += len(distinct)

            for extent in distinct:
                result = items_access(extent)
                if demote and result.evicted:
                    for evicted, _tally, _tier in result.evicted:
                        demote_involving(evicted)

            pairs = unique_pairs(distinct)
            pairs_seen += len(pairs)
            for pair in pairs:
                result = corr_access(pair)
                for evicted_pair, _tally, _tier in result.evicted:
                    types_pop(evicted_pair, None)
                tally = types_get(pair)
                if tally is None:
                    types[pair] = tally = TypeTally()
                tally.bump(_pair_kind(op_of[pair.first], op_of[pair.second]))

        self._transactions += count
        self._extents_seen += extents_seen
        self._pairs_seen += pairs_seen
        return count

    def process_transaction_batch(self, batch) -> int:
        """Columnar :meth:`process_batch`: same tables, same order, no
        per-event objects.

        Consumes a :class:`~repro.monitor.batch.TransactionBatch` whose
        distinct view (sorted, deduplicated, keep-first ops) matches this
        analyzer's iteration order, so the synopsis and the typed sidecar
        end up identical to processing the materialized transactions.
        The pair kind falls out of the op-code sum (read=0, write=1):
        0 is read/read, 2 write/write, 1 mixed.
        """
        extents = list(map(extent_of_row, zip(batch.starts.tolist(),
                                              batch.lengths.tolist())))
        ops = batch.ops.tolist()
        offsets = batch.offsets.tolist()
        items_access = self.items.access_fast
        corr_access = self.correlations.access_fast
        demote = self.config.demote_on_item_eviction
        demote_involving = self.correlations.demote_involving
        types = self._types
        types_get = types.get
        types_pop = types.pop
        count = len(offsets) - 1
        pairs_seen = 0
        for t in range(count):
            lo = offsets[t]
            hi = offsets[t + 1]
            transaction = extents[lo:hi]
            for extent in transaction:
                evicted = items_access(extent)
                if demote and evicted is not None:
                    demote_involving(evicted)
            n = hi - lo
            if n > 1:
                pairs_seen += n * (n - 1) // 2
                mixes = map(sum, combinations(ops[lo:hi], 2))
                for pair, mix in zip(map(pair_of_ordered,
                                         combinations(transaction, 2)),
                                     mixes):
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
        self._transactions += count
        self._extents_seen += len(extents)
        self._pairs_seen += pairs_seen
        return count

    # -- typed queries -----------------------------------------------------------

    def type_tally(self, pair: ExtentPair) -> Optional[TypeTally]:
        """The R/W mix recorded for a resident pair, if any."""
        return self._types.get(pair)

    def frequent_pairs_of_kind(
        self,
        kind: CorrelationKind,
        min_support: int = 2,
        purity: float = 0.5,
    ) -> List[Tuple[ExtentPair, int]]:
        """Frequent pairs whose history is dominated by ``kind``.

        ``purity`` is the minimum fraction of the pair's typed occurrences
        that must be of ``kind`` (0.5 means plurality-with-majority).
        Results are ordered strongest-first, like :meth:`frequent_pairs`.
        """
        if not 0.0 <= purity <= 1.0:
            raise ValueError(f"purity must be in [0, 1], got {purity}")
        selected: List[Tuple[ExtentPair, int]] = []
        for pair, tally in self.frequent_pairs(min_support):
            types = self._types.get(pair)
            if types is None or types.total == 0:
                continue
            of_kind = {
                CorrelationKind.READ: types.read,
                CorrelationKind.WRITE: types.write,
                CorrelationKind.MIXED: types.mixed,
            }[kind]
            if of_kind / types.total >= purity and types.dominant() is kind:
                selected.append((pair, tally))
        return selected

    def read_correlations(self, min_support: int = 2):
        """Frequent read-read pairs -- input to parallel placement (§V-2)."""
        return self.frequent_pairs_of_kind(CorrelationKind.READ, min_support)

    def write_correlations(self, min_support: int = 2):
        """Frequent write-write pairs -- input to GC streaming (§V-1)."""
        return self.frequent_pairs_of_kind(CorrelationKind.WRITE, min_support)

    def kind_summary(self) -> Dict[CorrelationKind, int]:
        """Resident pair counts by dominant kind."""
        summary = {kind: 0 for kind in CorrelationKind}
        for pair in self.pair_frequencies():
            types = self._types.get(pair)
            if types is not None and types.total:
                summary[types.dominant()] += 1
        return summary

    def adopt(self, other: OnlineAnalyzer) -> None:
        """Adopt another analyzer's synopsis, with its typed sidecar when
        it has one.

        A typed donor's sidecar is copied.  A plain donor -- what
        :func:`~repro.core.serialize.load_analyzer` returns, since the v2
        checkpoint stores the paper's native entry layout and no R/W
        sidecar -- leaves the sidecar empty, and type mixes are rebuilt
        from future traffic.
        """
        super().adopt(other)
        self._types = (dict(other._types)
                       if isinstance(other, TypedOnlineAnalyzer) else {})

    def reset(self) -> None:
        super().reset()
        self._types.clear()
