#!/usr/bin/env python3
"""Run the characterization framework as a long-lived service.

The batch pipeline answers "what were the correlations in this trace"; a
deployed system needs the *continuous* form: events stream in forever,
optimization modules subscribe to periodic snapshots, and the learned
synopsis survives restarts.  This example:

1. streams the first half of a workload into a *sharded* service in
   batches -- events flow through the monitor's amortized batch path and
   land in a hash-partitioned four-shard synopsis -- with an observer
   printing each periodic snapshot (the hook an optimizer attaches to)
   and a ``SnapshotEmitter`` printing a one-line telemetry digest
   (events/s, transactions/s, T2 occupancy, evictions) on an interval
   while appending full snapshots to an NDJSON file;
2. checkpoints the synopsis to a file in format v4 (one CRC envelope per
   shard, so a corrupt shard degrades instead of destroying a restore);
3. "restarts" into a fresh service, restores the checkpoint, streams the
   second half, and shows the correlations carried across the restart.

Run:  python examples/continuous_service.py
"""

import os
import tempfile

from repro import CharacterizationService
from repro.blkdev import SsdDevice, replay_timed
from repro.core import AnalyzerConfig
from repro.telemetry import MetricsRegistry, SnapshotEmitter, snapshot_value
from repro.workloads import generate_named

BATCH_SIZE = 500
DIGEST_INTERVAL = 0.1  # seconds between telemetry digest lines


class Batcher:
    """Buffer replay events into ``submit_many`` batches.

    A real deployment would drain a ring buffer on a timer; here the
    replay listener fills the buffer and every ``BATCH_SIZE`` events go
    through the service's batched ingest path in one call.  After each
    batch the snapshot emitter gets a chance to run -- the cooperative
    form of periodic telemetry, no extra thread needed.
    """

    def __init__(self, service, emitter=None):
        self.service = service
        self.emitter = emitter
        self.buffer = []
        self.batches = 0

    def __call__(self, event):
        self.buffer.append(event)
        if len(self.buffer) >= BATCH_SIZE:
            self.drain()

    def drain(self):
        if self.buffer:
            self.service.submit_many(self.buffer)
            self.buffer.clear()
            self.batches += 1
            if self.emitter is not None:
                self.emitter.maybe_emit()


class TelemetryDigest:
    """Render each emitted snapshot as one line of rates and occupancy.

    Counters are cumulative, so rates come from the delta between
    consecutive snapshots; T2 occupancy and evictions are read straight
    off the current one (``snapshot_value`` sums across tables/shards).
    """

    def __init__(self):
        self._previous = None

    def __call__(self, snap):
        events = snapshot_value(snap, "repro_monitor_events_seen_total")
        transactions = snapshot_value(
            snap, "repro_service_transactions_total"
        )
        t2_occupancy = snapshot_value(
            snap, "repro_synopsis_occupancy", {"tier": "t2"}
        )
        evictions = (
            snapshot_value(snap, "repro_synopsis_t1_evictions_total")
            + snapshot_value(snap, "repro_synopsis_t2_evictions_total")
        )
        previous = self._previous
        self._previous = (snap["ts"], events, transactions)
        if previous is None:
            return
        elapsed = snap["ts"] - previous[0]
        if elapsed <= 0:
            return
        event_rate = (events - previous[1]) / elapsed
        transaction_rate = (transactions - previous[2]) / elapsed
        print(f"  [telemetry] {event_rate:,.0f} events/s, "
              f"{transaction_rate:,.0f} transactions/s, "
              f"T2 occupancy {t2_occupancy:.0f}, "
              f"evictions {evictions:.0f}")


def make_service(registry=None):
    return CharacterizationService(
        config=AnalyzerConfig(item_capacity=4096, correlation_capacity=4096),
        min_support=5,
        snapshot_interval=1000,
        shards=4,  # hash-partitioned synopsis: 4 shards at capacity/4 each
        registry=registry,
    )


def main() -> None:
    records, _truth = generate_named("rsrch", requests=12000, seed=5)
    midpoint = len(records) // 2
    first_half, second_half = records[:midpoint], records[midpoint:]

    registry = MetricsRegistry()
    service = make_service(registry)
    ndjson_path = os.path.join(tempfile.gettempdir(), "telemetry.ndjson")
    emitter = SnapshotEmitter(
        registry,
        path=ndjson_path,
        interval=DIGEST_INTERVAL,
        on_snapshot=TelemetryDigest(),
    )

    def observer(snapshot):
        print(f"  [snapshot] {snapshot.transactions} transactions, "
              f"{snapshot.correlations} frequent correlations")

    service.observe(observer)

    print(f"Streaming first half ({len(first_half)} events) in batches "
          f"of {BATCH_SIZE} across {service.shards} shards ...")
    batcher = Batcher(service, emitter)
    replay_timed(first_half, SsdDevice(seed=3),
                 listeners=[batcher], collect=False)
    batcher.drain()
    service.flush()
    emitter.emit()  # one final digest line for the half
    before = service.snapshot()
    occupancy = service.analyzer.shard_occupancy()
    print(f"before restart: {before.correlations} frequent correlations, "
          f"{before.events} events seen ({batcher.batches} batches)")
    print(f"shard occupancy (items, pairs): {occupancy}")

    checkpoint_path = os.path.join(tempfile.gettempdir(), "synopsis.ckpt")
    with open(checkpoint_path, "wb") as stream:
        written = service.checkpoint(stream)
    print(f"checkpointed synopsis (format v4, one envelope per shard): "
          f"{written} bytes -> {checkpoint_path}")

    print("\n-- simulated restart --\n")
    # The restarted process gets a fresh registry (counters restart from
    # zero, like any process restart) and keeps appending to the same
    # NDJSON file.
    registry = MetricsRegistry()
    resumed = make_service(registry)
    emitter = SnapshotEmitter(
        registry,
        path=ndjson_path,
        interval=DIGEST_INTERVAL,
        on_snapshot=TelemetryDigest(),
    )
    with open(checkpoint_path, "rb") as stream:
        resumed.restore(stream)
    restored = resumed.snapshot()
    print(f"after restore: {restored.correlations} frequent correlations "
          f"(identical: {[p for p, _ in restored.frequent_pairs] == [p for p, _ in before.frequent_pairs]})")

    print(f"\nStreaming second half ({len(second_half)} events) ...")
    resumed.observe(observer)
    batcher = Batcher(resumed, emitter)
    replay_timed(second_half, SsdDevice(seed=3),
                 listeners=[batcher], collect=False)
    batcher.drain()
    resumed.flush()
    emitter.emit()
    final = resumed.snapshot()
    print(f"\nfinal: {final.correlations} frequent correlations; "
          f"strongest:")
    for pair, tally in final.frequent_pairs[:5]:
        print(f"  {pair}  x{tally}")
    with open(ndjson_path) as stream:
        lines = sum(1 for _line in stream)
    print(f"\nappended {lines} telemetry snapshots to {ndjson_path}")
    os.unlink(ndjson_path)
    os.unlink(checkpoint_path)


if __name__ == "__main__":
    main()
