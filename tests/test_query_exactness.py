"""Query answers are exact: top-k selection equals a full sort.

``correlated_with`` selects its ``k`` partners from the per-extent index
without sorting it, and ``frequent`` reads T2 alone for supports at or
above the promotion threshold.  Both must give exactly what sorting the
resident table contents gives -- on small tables, where evictions and
demotions reshape the synopsis, for the single typed analyzer and for a
2-shard in-process engine.
"""

import random

import pytest

from repro.core.config import AnalyzerConfig
from repro.core.typed import TypedOnlineAnalyzer
from repro.engine import BackendEngine
from repro.monitor.batch import TransactionBatch
from repro.monitor.events import BlockIOEvent
from repro.monitor.transaction import Transaction
from repro.telemetry import NULL_REGISTRY
from repro.trace.record import OpType

#: A large T1 lets pairs reach the threshold of 3; a small T2 then evicts.
CONFIG = AnalyzerConfig(item_capacity=16, correlation_capacity=64,
                        promote_threshold=3, t2_ratio=0.2)


def make_transactions(seed=5, count=1500, groups=40):
    """Zipf-popular groups of 2-4 correlated extents, each sighting
    missing a member now and then, plus 0-2 noise extents."""
    rng = random.Random(seed)
    members = [[(rank * 5 + offset) * 16 for offset in range(2 + rank % 3)]
               for rank in range(groups)]
    weights = [1.0 / (rank + 1) for rank in range(groups)]
    transactions, now = [], 0.0
    for _ in range(count):
        (group,) = rng.choices(range(groups), weights=weights)
        starts = [start for start in members[group] if rng.random() < 0.85]
        starts += [rng.randrange(300) * 16 for _ in range(rng.randint(0, 2))]
        events = []
        for start in starts:
            now += 1e-4
            events.append(BlockIOEvent(
                now, 1, rng.choice([OpType.READ, OpType.WRITE]),
                start, 8 + 8 * (start // 16 % 2),
            ))
        if events:
            transactions.append(Transaction(events))
    return transactions


def tables(engine):
    """The per-shard analyzers of either engine shape."""
    if isinstance(engine, TypedOnlineAnalyzer):
        return [engine]
    return [backend.analyzer for backend in engine.shard_backends]


def synopsis_order(entries):
    return sorted(entries, key=lambda entry: (-entry[1], entry[0]))


@pytest.mark.parametrize("build", [
    lambda: TypedOnlineAnalyzer(CONFIG, registry=NULL_REGISTRY),
    lambda: BackendEngine(CONFIG, shards=2, registry=NULL_REGISTRY),
], ids=["typed", "two-shards"])
def test_queries_equal_a_full_sort(build):
    engine = build()
    transactions = make_transactions()
    for start in range(0, len(transactions), 100):
        engine.process_transaction_batch(
            TransactionBatch.from_transactions(transactions[start:start + 100])
        )
    analyzers = tables(engine)
    report = engine.report()
    assert report.item_stats.t1_evictions + report.item_stats.t2_evictions
    assert report.correlation_stats.t2_evictions
    assert report.correlation_stats.demotions

    pairs = [(pair, tally) for analyzer in analyzers
             for pair, tally, _tier in analyzer.correlations.items()]
    extents = [(extent, tally) for analyzer in analyzers
               for extent, tally, _tier in analyzer.items.items()]
    for analyzer in analyzers:
        assert analyzer.correlations.check_index()

    for support in range(1, CONFIG.promote_threshold + 3):
        assert engine.frequent_pairs(support) == synopsis_order(
            entry for entry in pairs if entry[1] >= support)
        assert engine.frequent_extents(support) == synopsis_order(
            entry for entry in extents if entry[1] >= support)

    seen = sorted({extent for transaction in transactions
                   for extent in transaction.extents})
    for extent in seen:
        partners = synopsis_order(
            (pair.other(extent), tally) for pair, tally in pairs
            if pair.involves(extent))
        for k in (1, 2, 16, len(partners) + 1):
            assert engine.correlated_with(extent, k) == partners[:k]
