"""Pluggable synopsis backends: contract, accuracy, checkpoints, hosting.

The contract under test (ISSUE 9):

* every registered backend satisfies the :class:`SynopsisBackend`
  protocol and answers the full query surface;
* the two-tier backend is the *reference*: hosted at ``shards=1`` it is
  query-identical to a bare :class:`TypedOnlineAnalyzer` on any stream;
* the CHH and count-min backends recover planted hot pairs, and the
  count-min estimates never underestimate;
* ``shard_config`` preserves backend fields (regression: it used to
  rebuild the config from a fixed field list) and scales explicit
  sketch dimensions so total memory is shard-count invariant;
* checkpoint format v4 round-trips every backend query-identically,
  including through the engine-level ``dump_engine``/``load_engine``
  dispatch, and degrades per shard: a flipped payload byte raises under
  ``strict=True`` and restores the other shards under ``strict=False``;
* the service hosts sketch backends end to end (ingest, snapshot,
  checkpoint/restore) and the memory model prices both sketches at
  <= 25 % of the two-tier backend at auto dimensions.
"""

import io
import random

import pytest

from repro.analysis.accuracy import top_k_recall
from repro.core.config import BACKEND_NAMES, AnalyzerConfig
from repro.core.extent import Extent, ExtentPair
from repro.core.memory_model import (
    backend_memory_bytes,
    chh_backend_bytes,
    cms_backend_bytes,
    two_tier_backend_bytes,
)
from repro.core.typed import TypedOnlineAnalyzer
from repro.engine.backends import (
    CHHBackend,
    CountMinPairBackend,
    SynopsisBackend,
    TwoTierBackend,
    create_backend,
)
from repro.engine.backends.host import BackendEngine
from repro.engine import shard_config
from repro.engine.checkpoint import (
    dump_engine,
    load_engine,
)
from repro.core.serialize import CheckpointCorruptError
from repro.service import CharacterizationService
from repro.telemetry import NULL_REGISTRY

CONFIG = AnalyzerConfig(item_capacity=256, correlation_capacity=256)

#: Planted hot pairs, descending true frequency.
HOT = [
    (Extent(1, 8), Extent(9, 8), 60),
    (Extent(100, 4), Extent(200, 4), 40),
    (Extent(300, 2), Extent(400, 2), 25),
]


def hot_pair_stream(seed=7, noise=150, population=5000):
    """Transactions planting HOT pairs amid uniform background noise."""
    rng = random.Random(seed)
    out = []
    for first, second, repeats in HOT:
        out.extend([[first, second]] * repeats)
    for _ in range(noise):
        out.append([
            Extent(rng.randint(1000, 1000 + population), 1)
            for _ in range(rng.randint(1, 4))
        ])
    rng.shuffle(out)
    return out


def random_stream(seed=11, count=400, population=120):
    rng = random.Random(seed)
    return [
        [Extent(rng.randint(0, population), rng.randint(1, 4))
         for _ in range(rng.randint(1, 6))]
        for _ in range(count)
    ]


def config_for(name, base=CONFIG):
    import dataclasses
    return dataclasses.replace(base, backend=name)


# ---------------------------------------------------------------------------
# Protocol and registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_all_names_registered(self):
        assert set(BACKEND_NAMES) == {"two-tier", "chh", "cms"}

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_protocol_conformance(self, name):
        backend = create_backend(name, config_for(name))
        assert isinstance(backend, SynopsisBackend)
        assert backend.name == name

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown synopsis backend"):
            create_backend("bloom")
        with pytest.raises(ValueError, match="backend"):
            AnalyzerConfig(backend="bloom")

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_query_surface(self, name):
        backend = create_backend(name, config_for(name))
        for extents in hot_pair_stream():
            backend.process(extents)
        top = backend.top_pairs(10)
        assert top and all(count >= top[-1][1] for _pair, count in top)
        assert isinstance(backend.pair_frequencies(), dict)
        assert backend.frequent_extents(1)
        assert backend.memory_bytes() > 0
        items, pairs = backend.occupancy()
        assert items > 0 and pairs > 0
        report = backend.report()
        assert report.transactions == len(hot_pair_stream())


# ---------------------------------------------------------------------------
# Reference backend: exactness
# ---------------------------------------------------------------------------

class TestTwoTierReference:
    def test_hosted_two_tier_matches_bare_analyzer(self):
        engine = BackendEngine(config_for("two-tier"), shards=1,
                               registry=NULL_REGISTRY)
        bare = TypedOnlineAnalyzer(CONFIG, registry=NULL_REGISTRY)
        for extents in random_stream():
            engine.process(extents)
            bare.process(extents)
        assert engine.frequent_pairs(1) == bare.frequent_pairs(1)
        assert engine.frequent_extents(1) == bare.frequent_extents(1)
        assert engine.pair_frequencies() == bare.pair_frequencies()
        probe = Extent(5, 1)
        expected = sorted(
            [
                ((p.second if p.first == probe else p.first), c)
                for p, c in bare.pair_frequencies().items()
                if probe in (p.first, p.second)
            ],
            key=lambda e: (-e[1], e[0]),
        )[:16]
        assert engine.correlated_with(probe) == expected

    def test_two_tier_merge_unsupported(self):
        backend = TwoTierBackend(config_for("two-tier"))
        with pytest.raises(NotImplementedError):
            backend.merge(TwoTierBackend(config_for("two-tier")))


# ---------------------------------------------------------------------------
# Sketch backends: planted hot pairs
# ---------------------------------------------------------------------------

class TestSketchAccuracy:
    @pytest.mark.parametrize("name", ["chh", "cms"])
    def test_exact_on_low_churn_stream(self, name):
        """With few distinct keys (no summary evictions) both sketches
        count the planted pairs exactly or overestimate."""
        backend = create_backend(name, config_for(name))
        for extents in hot_pair_stream(noise=40, population=10):
            backend.process(extents)
        top = dict(backend.top_pairs(10))
        for first, second, repeats in HOT:
            pair = ExtentPair(first, second)
            assert pair in top, f"{name} lost planted pair {pair}"
            assert top[pair] >= repeats

    @pytest.mark.parametrize("name", ["chh", "cms"])
    def test_ranks_hot_pairs_above_noise(self, name):
        """Under heavy distinct-key noise (summary churn) the strongest
        planted pairs still outrank the background.  CHH may
        *underestimate* after an eviction drops an inner summary -- the
        recall/memory trade the Pareto benchmark quantifies -- so only
        rank, not magnitude, is asserted for the hottest pairs."""
        backend = create_backend(name, config_for(name))
        for extents in hot_pair_stream():
            backend.process(extents)
        top = [pair for pair, _count in backend.top_pairs(10)]
        for first, second, _repeats in HOT[:2]:
            assert ExtentPair(first, second) in top

    @pytest.mark.parametrize("name", ["chh", "cms"])
    def test_correlated_with_finds_partner(self, name):
        backend = create_backend(name, config_for(name))
        for extents in hot_pair_stream():
            backend.process(extents)
        partners = backend.correlated_with(Extent(1, 8), k=4)
        assert partners and partners[0][0] == Extent(9, 8)

    def test_cms_never_underestimates(self):
        backend = CountMinPairBackend(config_for("cms"))
        truth = {}
        for extents in random_stream(seed=3, count=300, population=60):
            distinct = sorted(set(extents))
            backend.process(extents)
            for i in range(len(distinct) - 1):
                for j in range(i + 1, len(distinct)):
                    pair = ExtentPair(distinct[i], distinct[j])
                    truth[pair] = truth.get(pair, 0) + 1
        for pair, count in truth.items():
            assert backend.estimate(pair) >= count

    @pytest.mark.parametrize("name", ["chh", "cms"])
    def test_merge_keeps_hot_pairs(self, name):
        left = create_backend(name, config_for(name))
        right = create_backend(name, config_for(name))
        stream = hot_pair_stream()
        for extents in stream[::2]:
            left.process(extents)
        for extents in stream[1::2]:
            right.process(extents)
        left.merge(right)
        top = dict(left.top_pairs(10))
        hottest = ExtentPair(HOT[0][0], HOT[0][1])
        assert hottest in top and top[hottest] >= HOT[0][2]
        assert left.report().transactions == len(stream)

    def test_cms_merge_requires_matching_dimensions(self):
        import dataclasses
        a = CountMinPairBackend(config_for("cms"))
        other_cfg = dataclasses.replace(config_for("cms"), cms_width=32)
        b = CountMinPairBackend(other_cfg)
        with pytest.raises(ValueError, match="different dimensions"):
            a.merge(b)


# ---------------------------------------------------------------------------
# Per-shard config derivation
# ---------------------------------------------------------------------------

class TestShardConfig:
    def test_backend_fields_survive(self):
        config = AnalyzerConfig(1024, 1024, backend="chh",
                                chh_partners=8, cms_depth=5)
        per = shard_config(config, 4)
        assert per.backend == "chh"
        assert per.chh_partners == 8
        assert per.cms_depth == 5
        assert per.item_capacity == 256

    def test_explicit_dimensions_scale_down(self):
        config = AnalyzerConfig(1024, 1024, backend="cms",
                                cms_width=1000, cms_candidates=100,
                                chh_items=80)
        per = shard_config(config, 4)
        assert per.cms_width == 250
        assert per.cms_candidates == 25
        assert per.chh_items == 20

    def test_auto_dimensions_stay_auto(self):
        per = shard_config(AnalyzerConfig(1024, 1024, backend="chh"), 4)
        assert per.chh_items == 0  # derives from the divided capacity
        items, _partners = per.chh_dimensions()
        full_items, _ = AnalyzerConfig(1024, 1024).chh_dimensions()
        assert items == -(-full_items // 4)


# ---------------------------------------------------------------------------
# Checkpoint format v4
# ---------------------------------------------------------------------------

def build_engine(name, shards=3):
    engine = BackendEngine(config_for(name), shards=shards,
                           registry=NULL_REGISTRY)
    for extents in hot_pair_stream():
        engine.process(extents)
    return engine


class TestCheckpointV4:
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_round_trip_query_identical(self, name):
        engine = build_engine(name)
        buf = io.BytesIO()
        dump_engine(engine, buf)
        buf.seek(0)
        loaded = load_engine(buf, strict=True)
        assert loaded.corrupt_shards == []
        restored = loaded.engine
        assert isinstance(restored, BackendEngine)
        assert restored.backend_name == name
        assert restored.shards == engine.shards
        assert restored.config == engine.config
        assert restored.frequent_pairs(1) == engine.frequent_pairs(1)
        assert restored.frequent_extents(1) == engine.frequent_extents(1)
        assert restored.top_pairs(20) == engine.top_pairs(20)
        assert restored.report() == engine.report()

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_degraded_restore(self, name):
        engine = build_engine(name)
        buf = io.BytesIO()
        dump_engine(engine, buf)
        raw = bytearray(buf.getvalue())
        raw[-2] ^= 0xFF  # inside the last shard's payload

        with pytest.raises(CheckpointCorruptError):
            load_engine(io.BytesIO(bytes(raw)), strict=True)

        loaded = load_engine(io.BytesIO(bytes(raw)), strict=False)
        assert loaded.corrupt_shards == [engine.shards - 1]
        restored = loaded.engine
        # Surviving shards keep their learned state.
        survivors = restored.shard_backends[:-1]
        originals = engine.shard_backends[:-1]
        for survivor, original in zip(survivors, originals):
            assert survivor.serialize() == original.serialize()
        # The corrupt shard restores fresh but usable.
        items, pairs = restored.shard_backends[-1].occupancy()
        assert (items, pairs) == (0, 0)
        restored.process([Extent(1, 8), Extent(9, 8)])

    def test_framing_corruption_always_raises(self):
        engine = build_engine("chh")
        buf = io.BytesIO()
        dump_engine(engine, buf)
        raw = bytearray(buf.getvalue())
        raw[2] ^= 0xFF  # magic
        with pytest.raises(CheckpointCorruptError):
            load_engine(io.BytesIO(bytes(raw)), strict=False)

    @pytest.mark.parametrize("name", ["chh", "cms"])
    def test_backend_serialize_round_trip_exact(self, name):
        backend = create_backend(name, config_for(name))
        for extents in hot_pair_stream():
            backend.process(extents)
        blob = backend.serialize()
        clone = type(backend).deserialize(blob, backend.config)
        assert clone.serialize() == blob
        assert clone.top_pairs(50) == backend.top_pairs(50)
        assert clone.frequent_extents(1) == backend.frequent_extents(1)


# ---------------------------------------------------------------------------
# Service integration
# ---------------------------------------------------------------------------

class TestServiceIntegration:
    @pytest.mark.parametrize("name", ["chh", "cms"])
    def test_service_hosts_sketch_backend(self, name):
        service = CharacterizationService(
            config=config_for(name), shards=2, registry=NULL_REGISTRY,
        )
        assert isinstance(service.analyzer, BackendEngine)
        now = [0.0]

        def feed(first, second):
            from repro.monitor.events import BlockIOEvent
            from repro.trace.record import OpType
            for extent in (first, second):
                now[0] += 1e-6
                service.submit(BlockIOEvent(
                    now[0], 1, OpType.READ, extent.start, extent.length))
            now[0] += 10.0  # close the window

        for _ in range(30):
            feed(Extent(1, 8), Extent(9, 8))
        service.close()
        snapshot = service.snapshot()
        assert snapshot.transactions >= 30
        top = dict(service.analyzer.top_pairs(5))
        assert ExtentPair(Extent(1, 8), Extent(9, 8)) in top

        buf = io.BytesIO()
        service.checkpoint(buf)
        restored = CharacterizationService(
            config=config_for(name), shards=2, registry=NULL_REGISTRY,
        )
        buf.seek(0)
        restored.restore(buf)
        assert isinstance(restored.analyzer, BackendEngine)
        assert restored.analyzer.top_pairs(5) == \
            service.analyzer.top_pairs(5)

    def test_resilient_service_checkpoints_backend_engine(self, tmp_path):
        from repro.monitor.events import BlockIOEvent
        from repro.resilience import ResilientCharacterizationService
        from repro.trace.record import OpType

        path = tmp_path / "synopsis.ckpt"

        def make():
            return ResilientCharacterizationService(
                config=config_for("cms"), shards=2, registry=NULL_REGISTRY,
            )

        service = make()
        now = 0.0
        for _ in range(30):
            for extent in (Extent(1, 8), Extent(9, 8)):
                now += 1e-6
                service.submit(BlockIOEvent(
                    now, 1, OpType.READ, extent.start, extent.length))
            now += 10.0
        service.checkpoint_to(path)
        assert service.health().status == "ok"
        assert path.read_bytes().startswith(b"RTBKD\x04")

        restored = make()
        assert restored.restore_from(path)
        assert isinstance(restored.analyzer, BackendEngine)
        assert restored.shards == 2
        assert restored.analyzer.top_pairs(5) == \
            service.analyzer.top_pairs(5)

        # Whole-file corruption falls back to a fresh engine of the
        # same backend shape instead of crashing or silently loading.
        (tmp_path / "dead.ckpt").write_bytes(
            b"\x00" + path.read_bytes()[1:])
        fallback = make()
        assert not fallback.restore_from(tmp_path / "dead.ckpt")
        assert isinstance(fallback.analyzer, BackendEngine)
        assert fallback.health().status == "degraded"


# ---------------------------------------------------------------------------
# Process-backed hosting
# ---------------------------------------------------------------------------

class TestProcessShardedBackends:
    @pytest.mark.parametrize("name", ["chh", "cms"])
    def test_worker_fleet_hosts_backend(self, name):
        from repro.engine.procshard import ProcessShardedAnalyzer
        from repro.monitor.batch import TransactionBatch
        from repro.monitor.events import BlockIOEvent
        from repro.monitor.transaction import Transaction
        from repro.trace.record import OpType

        def to_batch(stream):
            now, txns = 0.0, []
            for extents in stream:
                events = []
                for extent in extents:
                    now += 1e-6
                    events.append(BlockIOEvent(
                        now, 1, OpType.READ, extent.start, extent.length))
                txns.append(Transaction(events))
            return TransactionBatch.from_transactions(txns)

        stream = hot_pair_stream(noise=60)
        engine = ProcessShardedAnalyzer(config_for(name), shards=2,
                                        registry=NULL_REGISTRY)
        try:
            engine.process_transaction_batch(to_batch(stream))
            top = [pair for pair, _c in engine.frequent_pairs(1)[:10]]
            assert ExtentPair(HOT[0][0], HOT[0][1]) in top
            assert engine.report().transactions == len(stream)

            # One state seam, whatever the backend.
            assert not hasattr(engine, "shard_analyzers")
            backends = engine.shard_backends
            assert len(backends) == 2
            assert all(backend.name == name for backend in backends)

            # v4 checkpoint straight off the fleet, then adopt it back.
            buf = io.BytesIO()
            dump_engine(engine, buf)
            buf.seek(0)
            restored = load_engine(buf).engine
            assert isinstance(restored, BackendEngine)
            assert restored.frequent_pairs(1)[:10] == \
                engine.frequent_pairs(1)[:10]

            fresh = ProcessShardedAnalyzer(config_for(name), shards=2,
                                           registry=NULL_REGISTRY)
            try:
                fresh.adopt_backends(restored.shard_backends)
                assert fresh.frequent_pairs(1)[:10] == \
                    engine.frequent_pairs(1)[:10]
            finally:
                fresh.close()
        finally:
            engine.close()


# ---------------------------------------------------------------------------
# Memory model
# ---------------------------------------------------------------------------

class TestMemoryModel:
    def test_backend_memory_dispatch(self):
        base = AnalyzerConfig(4096, 4096)
        assert backend_memory_bytes(base) == two_tier_backend_bytes(base)
        chh = config_for("chh", base)
        assert backend_memory_bytes(chh) == \
            chh_backend_bytes(*chh.chh_dimensions())
        cms = config_for("cms", base)
        assert backend_memory_bytes(cms) == \
            cms_backend_bytes(*cms.cms_dimensions())

    @pytest.mark.parametrize("name", ["chh", "cms"])
    def test_sketches_fit_quarter_budget_at_auto_dims(self, name):
        base = AnalyzerConfig(4096, 4096)
        budget = two_tier_backend_bytes(base)
        sketch = backend_memory_bytes(config_for(name, base))
        assert sketch <= 0.25 * budget, (
            f"{name} auto dims cost {sketch} bytes, "
            f"> 25% of {budget}"
        )

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_instance_agrees_with_model(self, name):
        config = config_for(name)
        backend = create_backend(name, config)
        assert backend.memory_bytes() == backend_memory_bytes(config)


# ---------------------------------------------------------------------------
# Ranked-recall metric
# ---------------------------------------------------------------------------

class TestTopKRecall:
    def test_perfect_and_empty(self):
        truth = {"a": 5, "b": 3}
        assert top_k_recall(truth, [("a", 9), ("b", 4)], k=2) == 1.0
        assert top_k_recall({}, [("a", 1)], k=10) == 1.0

    def test_partial_overlap(self):
        truth = {"a": 5, "b": 3, "c": 1}
        assert top_k_recall(truth, [("a", 9), ("c", 2)], k=2) == 0.5

    def test_truth_smaller_than_k(self):
        assert top_k_recall({"a": 5}, [("a", 1), ("b", 1)], k=100) == 1.0

    def test_tie_class_members_all_count(self):
        # "b" and "c" tie at the k-th place; returning either is a
        # correct top-2, so both rankings score perfect recall.
        truth = {"a": 5, "b": 3, "c": 3, "d": 1}
        assert top_k_recall(truth, [("a", 9), ("b", 4)], k=2) == 1.0
        assert top_k_recall(truth, [("a", 9), ("c", 4)], k=2) == 1.0
        assert top_k_recall(truth, [("a", 9), ("d", 4)], k=2) == 0.5

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            top_k_recall({"a": 1}, [], k=0)
