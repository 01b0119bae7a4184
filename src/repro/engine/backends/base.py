"""The synopsis backend contract.

The paper's two-tier LRU tables are one *representation* of the synopsis;
Lahiri et al.'s Correlated Heavy Hitters and Cormode/Muthukrishnan-style
count-min pair sketches are sublinear alternatives over the same stream.
:class:`SynopsisBackend` names the surface all three share so the hosting
layers -- :class:`~repro.engine.backends.host.BackendEngine` in-process,
:class:`~repro.engine.procshard.ProcessShardedAnalyzer` across worker
processes, checkpoint format v4 -- can treat the representation as a
plug-in:

* **ingest** -- ``process`` / ``process_transaction`` /
  ``process_transaction_batch`` for standalone use, plus the two
  primitive updates (``update_item`` / ``update_pair``, the latter with
  the pair's R/W mix) a host calls after routing, and
  ``apply_shard_work`` consuming the procshard engine's pre-routed
  columnar arrays;
* **queries** -- ranked ``top_pairs`` / ``correlated_with`` plus the
  classic ``frequent_pairs`` / ``frequent_extents`` /
  ``pair_frequencies`` surface the service layers already consume;
* **accounting** -- ``memory_bytes`` prices the backend with the
  Section IV-C1 native-layout model (:mod:`repro.core.memory_model`),
  giving the Pareto benchmark its memory axis;
* **persistence** -- ``serialize`` / ``deserialize`` round-trip the
  learned state byte-exactly (checkpoint v4 wraps each shard's payload
  in a CRC envelope).

:class:`BackendBase` implements the shared plumbing (transaction
decomposition, columnar decoding, counters, service-compat stubs) so a
concrete backend only supplies the two updates, the queries over its own
structure, and its state codec.
"""

from __future__ import annotations

from itertools import combinations
from typing import (
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

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


def pairs_of_columns(a_starts, a_lengths, b_starts, b_lengths):
    """Canonical pairs from the procshard wire format's four columns (the
    router emits each pair as ``a < b``)."""
    return map(pair_of_ordered, zip(
        map(extent_of_row, zip(a_starts.tolist(), a_lengths.tolist())),
        map(extent_of_row, zip(b_starts.tolist(), b_lengths.tolist())),
    ))


@runtime_checkable
class SynopsisBackend(Protocol):
    """What a hosting engine requires of a synopsis representation."""

    def process_transaction(self, transaction) -> None:
        """Characterize one monitor transaction."""
        ...

    def process_transaction_batch(self, batch) -> int:
        """Characterize one columnar batch; returns transactions seen."""
        ...

    def top_pairs(self, k: int = 100, min_support: int = 1
                  ) -> List[Tuple[ExtentPair, int]]:
        """The ``k`` strongest correlated pairs, best first."""
        ...

    def correlated_with(self, extent: Extent, k: int = 16
                        ) -> List[Tuple[Extent, int]]:
        """Partners most correlated with ``extent``, best first."""
        ...

    def frequent_pairs(self, min_support: int = 2
                       ) -> List[Tuple[ExtentPair, int]]:
        ...

    def frequent_extents(self, min_support: int = 2
                         ) -> List[Tuple[Extent, int]]:
        ...

    def pair_frequencies(self) -> Dict[ExtentPair, int]:
        ...

    def memory_bytes(self) -> int:
        """Native-representation footprint (Section IV-C1 pricing)."""
        ...

    def serialize(self) -> bytes:
        """The backend's learned state as an opaque payload."""
        ...

    def reset(self) -> None:
        ...


class BackendBase:
    """Shared plumbing for concrete synopsis backends.

    Subclasses implement :meth:`update_item` / :meth:`update_pair` (the
    routed primitives), the query methods over their own structure, and
    the :meth:`serialize` / :meth:`deserialize` codec.
    """

    #: Registry name; subclasses override.
    name = "abstract"

    def __init__(self, config: Optional[AnalyzerConfig] = None) -> None:
        self.config = config or AnalyzerConfig()
        self._transactions = 0
        self._extents_seen = 0
        self._pairs_seen = 0

    # -- primitive updates (hosts call these after routing) ----------------

    def update_item(self, extent: Extent) -> Optional[Extent]:
        """Record one item access; returns an extent whose pairs must be
        demoted everywhere (two-tier eviction coupling), else ``None``."""
        raise NotImplementedError

    def update_pair(self, pair: ExtentPair, mix: Optional[int] = None
                    ) -> None:
        """Record one co-access of a canonical extent pair.  ``mix`` is
        the op-code sum of its members (0 read/read, 1 mixed, 2
        write/write; ``None`` untyped); sketches ignore it."""
        raise NotImplementedError

    def demote_item(self, extent: Extent) -> None:
        """Apply a cross-shard eviction demotion; sketches ignore it."""

    def bind_metrics(self, registry, shard: int) -> None:
        """Publish per-shard telemetry into a host's registry under
        ``shard="<shard>"``; sketches publish none of their own."""

    # -- standalone ingest -------------------------------------------------

    def process(self, extents: Sequence[Extent]) -> None:
        """Characterize one transaction given as bare extents."""
        distinct = sorted(set(extents))
        self._transactions += 1
        self._extents_seen += len(distinct)
        for extent in distinct:
            self.update_item(extent)
        pairs = unique_pairs(distinct)
        self._pairs_seen += len(pairs)
        for pair in pairs:
            self.update_pair(pair)

    def process_transaction(self, transaction) -> None:
        """Characterize one monitor transaction (untyped)."""
        self.process(transaction.extents)

    def process_transaction_batch(self, batch) -> int:
        """Characterize a columnar :class:`TransactionBatch` (rows are
        already deduplicated per transaction by the monitor)."""
        extents = list(map(extent_of_row, zip(batch.starts.tolist(),
                                              batch.lengths.tolist())))
        offsets = batch.offsets.tolist()
        update_item = self.update_item
        update_pair = self.update_pair
        count = len(offsets) - 1
        for t in range(count):
            transaction = extents[offsets[t]:offsets[t + 1]]
            for extent in transaction:
                update_item(extent)
            m = len(transaction)
            if m > 1:
                self._pairs_seen += m * (m - 1) // 2
                for pair in map(pair_of_ordered, combinations(transaction, 2)):
                    update_pair(pair)
        self._extents_seen += len(extents)
        self._transactions += count
        return count

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
        """Apply one shard's pre-routed columnar work (the procshard wire
        format): items first, then pairs with their R/W mix.  Returns
        item evictions as ``(start, length)`` rows for cross-shard
        demotion -- always empty for sketch backends."""
        update_item = self.update_item
        update_pair = self.update_pair
        evicted_out: List[Tuple[int, int]] = []
        for extent in map(extent_of_row, zip(item_starts.tolist(),
                                             item_lengths.tolist())):
            evicted = update_item(extent)
            if evicted is not None:
                evicted_out.append((evicted.start, evicted.length))
        for pair, mix in zip(pairs_of_columns(a_starts, a_lengths,
                                              b_starts, b_lengths),
                             mixes.tolist()):
            update_pair(pair, mix)
        self._extents_seen += len(item_starts)
        self._pairs_seen += len(a_starts)
        return evicted_out

    # -- queries -----------------------------------------------------------

    def top_pairs(self, k: int = 100, min_support: int = 1
                  ) -> List[Tuple[ExtentPair, int]]:
        return self.frequent_pairs(min_support)[:k]

    def correlated_with(self, extent: Extent, k: int = 16
                        ) -> List[Tuple[Extent, int]]:
        partners: Dict[Extent, int] = {}
        for pair, count in self.pair_frequencies().items():
            if pair.first == extent:
                other = pair.second
            elif pair.second == extent:
                other = pair.first
            else:
                continue
            if count > partners.get(other, 0):
                partners[other] = count
        return rank(list(partners.items()))[:k]

    def frequent_pairs(self, min_support: int = 2
                       ) -> List[Tuple[ExtentPair, int]]:
        raise NotImplementedError

    def frequent_extents(self, min_support: int = 2
                         ) -> List[Tuple[Extent, int]]:
        raise NotImplementedError

    def pair_frequencies(self) -> Dict[ExtentPair, int]:
        raise NotImplementedError

    # -- service-compat stubs (typed queries need the two-tier sidecar) ----

    def frequent_pairs_of_kind(self, kind: CorrelationKind,
                               min_support: int = 2, purity: float = 0.5
                               ) -> List[Tuple[ExtentPair, int]]:
        return []

    def kind_summary(self) -> Dict[CorrelationKind, int]:
        return {kind: 0 for kind in CorrelationKind}

    def type_tally(self, pair: ExtentPair) -> Optional[TypeTally]:
        return None

    # -- accounting and lifecycle ------------------------------------------

    def memory_bytes(self) -> int:
        raise NotImplementedError

    def occupancy(self) -> Tuple[int, int]:
        """Resident ``(items, pairs)`` tracked right now (diagnostics)."""
        raise NotImplementedError

    def report(self) -> AnalyzerReport:
        return AnalyzerReport(
            transactions=self._transactions,
            extents_seen=self._extents_seen,
            pairs_seen=self._pairs_seen,
            item_stats=TableStats(),
            correlation_stats=TableStats(),
        )

    def merge(self, other: "BackendBase") -> None:
        """Fold another instance's state into this one (shard collapse)."""
        raise NotImplementedError

    def serialize(self) -> bytes:
        raise NotImplementedError

    @classmethod
    def deserialize(cls, payload: bytes,
                    config: Optional[AnalyzerConfig] = None
                    ) -> "BackendBase":
        raise NotImplementedError

    def reset(self) -> None:
        self._transactions = 0
        self._extents_seen = 0
        self._pairs_seen = 0

    # -- shared codec helpers ----------------------------------------------

    def _counters(self) -> List[int]:
        return [self._transactions, self._extents_seen, self._pairs_seen]

    def _restore_counters(self, counters: Sequence[int]) -> None:
        (self._transactions, self._extents_seen,
         self._pairs_seen) = counters
