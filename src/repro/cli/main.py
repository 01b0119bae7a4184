"""Command-line interface for the characterization framework.

Subcommands mirror the workflows of the paper's evaluation:

* ``repro generate``     -- produce a synthetic or enterprise workload trace
* ``repro stats``        -- Table I-style statistics of a trace file
* ``repro characterize`` -- replay a trace through the real-time pipeline
  and report the detected correlations (optionally as association rules)
* ``repro mine``         -- offline FIM over a trace's transactions (the
  ground-truth path)
* ``repro serve``        -- run the streaming ingest/query server
* ``repro send``         -- stream a trace into a running server

Trace files are detected by suffix: ``.csv`` (MSR Cambridge convention),
``.bin`` (this repo's binary format), ``.txt`` (blkparse-style text).
A trailing ``.gz`` on any of them reads/writes through gzip.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from ..analysis.cdf import correlation_cdf
from ..analysis.report import build_report, render_report
from ..core.config import BACKEND_NAMES, AnalyzerConfig
from ..fim.apriori import apriori
from ..fim.eclat import eclat
from ..fim.fpgrowth import fpgrowth
from ..fim.itemset import frequent_pairs
from ..fim.pairs import exact_pair_counts, sorted_by_frequency
from ..fim.rules import rules_from_analyzer
from ..monitor.window import DynamicLatencyWindow, StaticWindow
from ..pipeline import run_pipeline
from ..telemetry.export import render_digest, render_json, render_prometheus
from ..telemetry.metrics import MetricsRegistry
from ..trace.errors import ErrorPolicy, IngestReport
from ..trace.io import (
    load_binary,
    load_blkparse_text,
    load_msr_csv,
    save_binary,
    save_blkparse_text,
    save_msr_csv,
    trace_format_suffix,
)
from ..trace.record import TraceRecord
from ..trace.stats import compute_stats
from ..workloads.enterprise import PROFILES, generate_named
from ..workloads.synthetic import (
    SyntheticKind,
    SyntheticSpec,
    generate_synthetic,
)

_MINERS = {"apriori": apriori, "eclat": eclat, "fpgrowth": fpgrowth}


def load_trace(path: str,
               policy: ErrorPolicy = ErrorPolicy.STRICT,
               dead_letters_path: Optional[str] = None) -> List[TraceRecord]:
    """Load a trace file, dispatching on its suffix.

    Under a non-strict ``policy``, malformed rows are skipped (and sampled
    into a dead-letter buffer under ``quarantine``) with a summary printed
    to stderr instead of aborting the run; ``dead_letters_path`` addition-
    ally dumps the quarantined sample as NDJSON.  A ``.gz`` suffix on any
    format reads through gzip (``trace.csv.gz`` etc.).
    """
    suffix = trace_format_suffix(path)
    report = IngestReport()
    if suffix == ".csv":
        records = load_msr_csv(path, policy=policy, report=report)
    elif suffix == ".bin":
        records = load_binary(path, policy=policy, report=report)
    elif suffix in (".txt", ".blkparse"):
        records = load_blkparse_text(path)
    else:
        raise SystemExit(
            f"cannot infer trace format of {path!r}; "
            f"use .csv (MSR), .bin (binary), or .txt (blkparse), "
            f"optionally with a .gz suffix"
        )
    if report.rows_bad:
        print(
            f"warning: skipped {report.rows_bad} malformed rows "
            f"({100 * report.error_rate:.2f}% of {report.rows_total})",
            file=sys.stderr,
        )
        if report.dead_letters is not None and len(report.dead_letters):
            sample = report.dead_letters.rows()[0]
            print(
                f"warning: first quarantined row (line {sample.line_number}): "
                f"{sample.error}",
                file=sys.stderr,
            )
            if dead_letters_path:
                dumped = report.dead_letters.dump_ndjson(dead_letters_path)
                print(f"wrote {dumped} quarantined rows to "
                      f"{dead_letters_path}", file=sys.stderr)
    return records


def _policy_from(args: argparse.Namespace) -> ErrorPolicy:
    return ErrorPolicy.parse(getattr(args, "error_policy", "strict"))


def _add_error_policy_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--error-policy",
        choices=[policy.value for policy in ErrorPolicy],
        default="strict",
        help="malformed trace rows: strict=abort (default), "
             "lenient=count+skip, quarantine=count+skip+sample",
    )


def save_trace(records: List[TraceRecord], path: str) -> None:
    suffix = trace_format_suffix(path)
    if suffix == ".csv":
        save_msr_csv(records, path)
    elif suffix == ".bin":
        save_binary(records, path)
    elif suffix in (".txt", ".blkparse"):
        save_blkparse_text(records, path)
    else:
        raise SystemExit(
            f"cannot infer trace format of {path!r}; "
            f"use .csv (MSR), .bin (binary), or .txt (blkparse), "
            f"optionally with a .gz suffix"
        )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args: argparse.Namespace) -> int:
    synthetic_kinds = {kind.value: kind for kind in SyntheticKind}
    if args.workload in synthetic_kinds:
        spec = SyntheticSpec(
            kind=synthetic_kinds[args.workload],
            duration=args.duration,
            seed=args.seed,
        )
        records, _truth = generate_synthetic(spec)
    elif args.workload in PROFILES:
        records, _truth = generate_named(
            args.workload, requests=args.requests, seed=args.seed
        )
    else:
        known = sorted(synthetic_kinds) + sorted(PROFILES)
        raise SystemExit(f"unknown workload {args.workload!r}; know {known}")
    save_trace(records, args.output)
    print(f"wrote {len(records)} requests to {args.output}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    records = load_trace(args.trace, _policy_from(args))
    stats = compute_stats(records)
    print(f"requests            : {stats.requests}")
    print(f"duration            : {stats.duration:.3f} s")
    print(f"total data          : {stats.total_gb:.3f} GB")
    print(f"unique data         : {stats.unique_gb:.3f} GB")
    print(f"total/unique        : "
          f"{stats.total_bytes / stats.unique_bytes:.1f}x")
    print(f"interarrival <100us : {stats.fast_interarrival_percent:.1f}%")
    print(f"read fraction       : {100 * stats.read_fraction:.1f}%")
    if stats.mean_latency is not None:
        print(f"mean trace latency  : {stats.mean_latency * 1e3:.3f} ms")
    return 0


def _window_from(args: argparse.Namespace):
    if args.window is None:
        return DynamicLatencyWindow()
    return StaticWindow(args.window)


def _wants_metrics(args: argparse.Namespace) -> bool:
    return bool(args.metrics or args.metrics_json or
                args.metrics_prometheus or
                getattr(args, "metrics_http", None) is not None)


def _export_metrics(registry: MetricsRegistry,
                    args: argparse.Namespace) -> None:
    """Write the run's telemetry wherever the flags asked for it."""
    if args.metrics_json:
        Path(args.metrics_json).write_text(render_json(registry) + "\n")
        print(f"wrote metrics snapshot to {args.metrics_json}")
    if args.metrics_prometheus:
        Path(args.metrics_prometheus).write_text(render_prometheus(registry))
        print(f"wrote Prometheus exposition to {args.metrics_prometheus}")
    if args.metrics:
        print("\ntelemetry:")
        for line in render_digest(registry).splitlines():
            print(f"  {line}")


def cmd_characterize(args: argparse.Namespace) -> int:
    from ..engine.checkpoint import dump_engine, load_engine

    records = load_trace(args.trace, _policy_from(args),
                         dead_letters_path=args.dead_letters)
    # A fresh registry per run keeps the export scoped to this trace
    # instead of whatever the process-local default accumulated.
    registry = MetricsRegistry() if _wants_metrics(args) else None
    ops = None
    if args.metrics_http is not None:
        from ..telemetry.httpd import OpsServer
        ops = OpsServer(registry=registry, port=args.metrics_http).start()
        print(f"ops endpoint on {ops.address} "
              f"(/metrics /healthz /readyz /vars)", flush=True)
    analyzer = None
    config = None
    if args.load_synopsis:
        with open(args.load_synopsis, "rb") as stream:
            analyzer = load_engine(stream).engine
    else:
        config = AnalyzerConfig(
            item_capacity=args.capacity,
            correlation_capacity=args.capacity,
            promote_threshold=args.promote_threshold,
            backend=args.backend,
        )
    try:
        result = run_pipeline(
            records,
            config=config,
            analyzer=analyzer,
            window=_window_from(args),
            max_transaction_size=args.max_transaction,
            dedup=not args.no_dedup,
            record_offline=False,
            shards=args.shards,
            batch_size=args.batch_size,
            shard_processes=args.shard_processes,
            registry=registry,
        )
    except ValueError as exc:  # flags the run cannot honour
        raise SystemExit(f"characterize: {exc}") from exc
    if args.save_synopsis:
        with open(args.save_synopsis, "wb") as stream:
            written = dump_engine(result.analyzer, stream)
        print(f"saved synopsis ({written} bytes) to {args.save_synopsis}")
    monitor = result.monitor_stats
    print(f"processed {monitor.events_seen} events into "
          f"{monitor.transactions_emitted} transactions "
          f"({monitor.duplicates_removed} duplicates removed)")
    detected = result.frequent_pairs(min_support=args.support)
    print(f"\ntop correlations (support >= {args.support}):")
    for pair, tally in detected[:args.top]:
        print(f"  {pair}  x{tally}")
    if not detected:
        print("  (none)")
    if args.rules:
        print(f"\nassociation rules (confidence >= {args.min_confidence}):")
        rules = rules_from_analyzer(
            result.analyzer,
            min_support=args.support,
            min_confidence=args.min_confidence,
        )
        for rule in rules[:args.top]:
            print(f"  {rule}")
        if not rules:
            print("  (none)")
    if registry is not None:
        _export_metrics(registry, args)
    result.release()  # shut down process-shard workers, if any
    if ops is not None:
        ops.stop()
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    records = load_trace(args.trace, _policy_from(args))
    report = build_report(
        records,
        support=args.support,
        capacity=args.capacity,
        top=args.top,
        window=_window_from(args),
    )
    print(render_report(report, name=Path(args.trace).name))
    return 0


def cmd_drift(args: argparse.Namespace) -> int:
    """The Fig. 10 experiment on two trace files: A -> B -> A."""
    from ..analysis.diff import diff_snapshots
    from ..blkdev.device import SsdDevice
    from ..blkdev.replay import replay_timed
    from ..core.analyzer import OnlineAnalyzer
    from ..monitor.monitor import Monitor
    from ..workloads.composite import drift_workload

    first = load_trace(args.trace_a, _policy_from(args))
    second = load_trace(args.trace_b, _policy_from(args))
    segment = args.segment or min(len(first) // 2, len(second))
    if len(first) < 2 * segment or len(second) < segment:
        raise SystemExit(
            f"need >= {2 * segment} requests in A and >= {segment} in B"
        )
    _flat, segments = drift_workload(first, second, segment,
                                     labels=("A", "B"))
    analyzer = OnlineAnalyzer(AnalyzerConfig(
        item_capacity=args.capacity, correlation_capacity=args.capacity
    ))
    monitor = Monitor(window=_window_from(args))
    monitor.add_sink(lambda txn: analyzer.process(txn.extents))
    device = SsdDevice(seed=1)

    previous = None
    for part in segments:
        replay_timed(part.records, device,
                     listeners=[monitor.on_event], collect=False)
        monitor.flush()
        snapshot = dict(analyzer.pair_frequencies())
        line = f"after {part.label}: {len(snapshot)} resident pairs"
        if previous is not None:
            delta = diff_snapshots(previous, snapshot)
            line += (f"  (+{len(delta.appeared)} new, "
                     f"-{len(delta.vanished)} gone, "
                     f"stability {delta.stability:.2f})")
        print(line)
        previous = snapshot
    return 0


def cmd_mine(args: argparse.Namespace) -> int:
    records = load_trace(args.trace, _policy_from(args))
    result = run_pipeline(records, window=_window_from(args),
                          max_transaction_size=args.max_transaction)
    transactions = result.offline_transactions()
    miner = _MINERS[args.algorithm]
    itemsets = miner(transactions, min_support=args.support, max_size=2)
    pairs = frequent_pairs(itemsets)
    print(f"{args.algorithm}: {len(pairs)} frequent pairs at "
          f"support {args.support} over {len(transactions)} transactions")
    counts = exact_pair_counts(transactions)
    cdf = correlation_cdf(counts) if counts else None
    if cdf is not None:
        print(f"unique pairs {cdf.total_pairs}, "
              f"{100 * cdf.support_one_fraction:.1f}% occur once")
    ranked = sorted(pairs.items(), key=lambda entry: -entry[1])
    for itemset, support in ranked[:args.top]:
        a, b = sorted(itemset)
        print(f"  ({a}, {b})  x{support}")
    return 0


def cmd_cache_sim(args: argparse.Namespace) -> int:
    """Hit-ratio sweep of the correlation-driven prefetching cache.

    The trace is monitored once (same windowing as ``characterize``) to
    recover its transactions; every (cache size, eviction policy,
    prefetch mode) combination then replays those transactions through a
    fresh cache -- and, for the ``synopsis`` mode, a fresh synopsis
    backend trained online behind the cache (strictly causal).
    """
    import json

    from ..cache import (
        OfflineMiner,
        SimulatedBlockCache,
        SynopsisPrefetcher,
        run_closed_loop,
        simulate_cache,
    )
    from ..engine.backends import create_backend

    records = load_trace(args.trace, _policy_from(args))
    pipeline = run_pipeline(
        records,
        window=_window_from(args),
        max_transaction_size=args.max_transaction,
        record_offline=True,
    )
    transactions = pipeline.offline_transactions()
    accesses = [extent for extents in transactions for extent in extents]
    config = AnalyzerConfig(
        item_capacity=args.capacity,
        correlation_capacity=args.capacity,
        backend=args.backend,
    )

    print(f"{len(records)} requests -> {len(transactions)} transactions, "
          f"{len(accesses)} cached accesses "
          f"(backend={args.backend}, budget={args.budget}, "
          f"min-support={args.min_support})")
    header = (f"{'size':>8}  {'policy':<8} {'prefetch':<9} "
              f"{'hit_ratio':>9} {'accuracy':>9} {'issued':>9}")
    print(header)
    print("-" * len(header))

    results = []
    for size in args.sizes:
        for policy in args.policies:
            for mode in args.modes:
                if mode == "none":
                    stats = simulate_cache(accesses, size, policy=policy)
                elif mode == "synopsis":
                    engine = create_backend(args.backend, config)
                    cache = SimulatedBlockCache(size, policy=policy)
                    stats = run_closed_loop(
                        transactions, engine, cache,
                        SynopsisPrefetcher(
                            engine,
                            budget=args.budget,
                            min_support=args.min_support,
                        ),
                    )
                else:  # offline: MITHRIL-style mined-trace baseline
                    miner = OfflineMiner(
                        lookahead=args.lookahead,
                        min_support=args.min_support,
                        fanout=args.budget,
                    ).mine(accesses)
                    stats = simulate_cache(
                        accesses, size, policy=policy, prefetcher=miner
                    )
                entry = {
                    "cache_blocks": size,
                    "policy": policy,
                    "prefetch": mode,
                    "backend": args.backend if mode == "synopsis" else None,
                    **stats.as_dict(),
                }
                results.append(entry)
                print(f"{size:>8}  {policy:<8} {mode:<9} "
                      f"{stats.hit_ratio:>9.4f} "
                      f"{stats.prefetch_accuracy:>9.4f} "
                      f"{stats.prefetches_issued:>9}")

    if args.json:
        payload = {}
        path = Path(args.json)
        if path.exists():
            try:
                payload = json.loads(path.read_text())
            except ValueError:
                payload = {}
        payload["cache_sim"] = {
            "trace": Path(args.trace).name,
            "requests": len(records),
            "transactions": len(transactions),
            "backend": args.backend,
            "budget": args.budget,
            "min_support": args.min_support,
            "results": results,
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"\nwrote {len(results)} results to {args.json}")
    return 0


def _address_from(args: argparse.Namespace):
    if args.unix:
        return args.unix
    if args.port is None:
        raise SystemExit("need --unix PATH or --port N")
    return (args.host, args.port)


def cmd_serve(args: argparse.Namespace) -> int:
    from ..resilience.service import ResilientCharacterizationService
    from ..server.server import CharacterizationServer
    from ..telemetry.metrics import get_default_registry

    if args.supervise:
        return _serve_supervised(args)

    if args.trace_log:
        from ..telemetry.tracelog import TraceLog, install_tracelog
        install_tracelog(TraceLog(
            args.trace_log,
            sample_rate=args.trace_sample,
            slow_threshold=args.trace_slow,
        ))
    registry = get_default_registry()
    config = AnalyzerConfig(
        item_capacity=args.capacity,
        correlation_capacity=args.capacity,
        backend=args.backend,
    )

    def service_factory():
        return ResilientCharacterizationService(
            config=AnalyzerConfig(
                item_capacity=args.capacity,
                correlation_capacity=args.capacity,
                backend=args.backend,
            ),
            min_support=args.support,
            shards=args.shards,
            shard_processes=args.shard_processes,
            snapshot_interval=args.snapshot_interval,
            registry=registry,
        )

    service = ResilientCharacterizationService(
        config=config,
        min_support=args.support,
        shards=args.shards,
        shard_processes=args.shard_processes,
        snapshot_interval=args.snapshot_interval,
        registry=registry,
    )
    server = CharacterizationServer(
        service,
        unix_path=args.unix,
        host=args.host,
        port=args.port if args.port is not None else 0,
        soft_limit=args.soft_limit,
        hard_limit=args.hard_limit,
        checkpoint_path=args.checkpoint,
        service_factory=service_factory,
        max_tenants=args.max_tenants,
        registry=registry,
        wal_dir=args.wal_dir,
        fsync=args.fsync,
        fsync_interval=args.fsync_interval,
        wal_truncate=not args.keep_wal,
        heartbeat_path=args.heartbeat,
        dead_letter_path=args.dead_letters,
        http_port=args.http_port,
        http_host=args.http_host,
    )
    where = args.unix if args.unix else f"{args.host}:{args.port}"
    durability = f", wal={args.wal_dir} fsync={args.fsync}" \
        if args.wal_dir else ""
    ops = f", ops http://{args.http_host}:{args.http_port}" \
        if args.http_port is not None else ""
    print(f"serving on {where} "
          f"(shards={args.shards}, capacity={args.capacity}, "
          f"soft={args.soft_limit}, hard={args.hard_limit}"
          f"{durability}{ops}); "
          f"Ctrl-C to drain and exit", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    stats = service.monitor.stats
    print(f"drained: {stats.events_seen} events, "
          f"{service.transactions} transactions characterized")
    if args.checkpoint:
        print(f"checkpointed to {args.checkpoint}")
    return 0


def _serve_supervised(args: argparse.Namespace) -> int:
    """Run the server under the in-tree supervisor: the worker process is
    restarted (with backoff) when it crashes or its heartbeat goes stale,
    until it exits cleanly or crash-loops past the restart budget."""
    from ..server.supervisor import (
        Supervisor,
        SupervisorGaveUp,
        WorkerConfig,
    )

    if not args.wal_dir:
        print("warning: --supervise without --wal-dir restarts workers "
              "but cannot recover acknowledged events", file=sys.stderr)
    heartbeat = args.heartbeat
    if heartbeat is None and args.wal_dir:
        heartbeat = str(Path(args.wal_dir) / "heartbeat.json")
    config = WorkerConfig(
        unix_path=args.unix,
        host=args.host,
        port=args.port if args.port is not None else 0,
        checkpoint_path=args.checkpoint,
        wal_dir=args.wal_dir,
        fsync=args.fsync,
        fsync_interval=args.fsync_interval,
        wal_truncate=not args.keep_wal,
        heartbeat_path=heartbeat,
        dead_letter_path=args.dead_letters,
        soft_limit=args.soft_limit,
        hard_limit=args.hard_limit,
        max_tenants=args.max_tenants,
        capacity=args.capacity,
        support=args.support,
        shards=args.shards,
        shard_processes=args.shard_processes,
        snapshot_interval=args.snapshot_interval,
        http_port=args.http_port,
        http_host=args.http_host,
        trace_log=args.trace_log,
        trace_sample_rate=args.trace_sample,
        trace_slow_threshold=args.trace_slow,
    )
    supervisor = Supervisor(
        config,
        max_restarts=args.max_restarts,
        restart_window=args.restart_window,
        heartbeat_timeout=args.heartbeat_timeout,
    )
    where = args.unix if args.unix else f"{args.host}:{args.port}"
    print(f"supervising server on {where} "
          f"(wal={args.wal_dir}, fsync={args.fsync}, "
          f"restart budget {args.max_restarts}/{args.restart_window}s); "
          f"Ctrl-C to stop", flush=True)
    try:
        code = supervisor.run()
    except KeyboardInterrupt:
        code = supervisor.stop()
    except SupervisorGaveUp as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if supervisor.restarts:
        print(f"worker restarted {supervisor.restarts} time(s); "
              f"last reason: {supervisor.last_restart_reason}")
    return 0 if code in (0, None) else 1


def cmd_send(args: argparse.Namespace) -> int:
    from ..monitor.events import BlockIOEvent
    from ..resilience.policy import BackoffPolicy
    from ..server.circuit import CircuitBreaker
    from ..server.client import BatchingWriter, CharacterizationClient

    records = load_trace(args.trace, _policy_from(args))
    client = CharacterizationClient(
        _address_from(args), tenant=args.tenant,
        request_deadline=args.deadline,
        policy=BackoffPolicy(retries=args.retries),
        breaker=CircuitBreaker() if args.breaker else None,
    )
    with client:
        with BatchingWriter(client, max_batch=args.batch_size) as writer:
            for record in records:
                writer.add(BlockIOEvent.from_record(record))
        print(f"sent {client.events_sent} events in "
              f"{client.frames_sent} frames "
              f"({client.throttle_count} throttles, "
              f"{client.reconnects} reconnects, "
              f"{client.duplicates_acked} duplicate acks)")
        if args.top:
            detected = client.query_top(k=args.top,
                                        min_support=args.support)
            print(f"\ntop correlations (support >= {args.support}):")
            for pair, tally in detected:
                print(f"  {pair}  x{tally}")
            if not detected:
                print("  (none)")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Real-time data access correlation characterization",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="generate a workload trace file"
    )
    generate.add_argument("workload",
                          help="one-to-one | one-to-many | many-to-many | "
                               "wdev | src2 | rsrch | stg | hm")
    generate.add_argument("output", help="trace path (.csv/.bin/.txt)")
    generate.add_argument("--requests", type=int, default=20000,
                          help="enterprise workload length (default 20000)")
    generate.add_argument("--duration", type=float, default=120.0,
                          help="synthetic workload seconds (default 120)")
    generate.add_argument("--seed", type=int, default=42)
    generate.set_defaults(handler=cmd_generate)

    stats = subparsers.add_parser("stats", help="Table I-style statistics")
    stats.add_argument("trace")
    _add_error_policy_flag(stats)
    stats.set_defaults(handler=cmd_stats)

    characterize = subparsers.add_parser(
        "characterize", help="real-time online characterization"
    )
    characterize.add_argument("trace")
    _add_error_policy_flag(characterize)
    characterize.add_argument("--support", type=int, default=5)
    characterize.add_argument("--capacity", type=int, default=16 * 1024,
                              help="per-tier table entries C (default 16K)")
    characterize.add_argument("--promote-threshold", type=int, default=2)
    characterize.add_argument("--window", type=float, default=None,
                              help="static window seconds "
                                   "(default: dynamic 2x latency)")
    characterize.add_argument("--max-transaction", type=int, default=8)
    characterize.add_argument("--backend", choices=list(BACKEND_NAMES),
                              default="two-tier",
                              help="synopsis backend: the paper's two-tier "
                                   "LRU tables (exact, largest), chh "
                                   "(correlated heavy hitters), or cms "
                                   "(count-min pair sketch)")
    characterize.add_argument("--shards", type=int, default=1,
                              help="hash-partition the synopsis across N "
                                   "shard table pairs at capacity/N each "
                                   "(default 1: single analyzer)")
    characterize.add_argument("--shard-processes", action="store_true",
                              help="back the shards with one worker "
                                   "process each (GIL-free; pair with "
                                   "--shards/--batch-size)")
    characterize.add_argument("--batch-size", type=int, default=None,
                              help="feed events to the monitor in batches "
                                   "of this size (default: per-event)")
    characterize.add_argument("--no-dedup", action="store_true")
    characterize.add_argument("--top", type=int, default=20)
    characterize.add_argument("--rules", action="store_true",
                              help="also print association rules")
    characterize.add_argument("--min-confidence", type=float, default=0.5)
    characterize.add_argument("--save-synopsis", metavar="PATH",
                              help="checkpoint the synopsis after the run")
    characterize.add_argument("--load-synopsis", metavar="PATH",
                              help="resume from a checkpointed synopsis")
    characterize.add_argument("--metrics", action="store_true",
                              help="print a telemetry digest after the run")
    characterize.add_argument("--metrics-json", metavar="PATH",
                              help="write the run's metrics snapshot "
                                   "as JSON")
    characterize.add_argument("--metrics-prometheus", metavar="PATH",
                              help="write the run's metrics in Prometheus "
                                   "text exposition format")
    characterize.add_argument("--metrics-http", metavar="PORT", type=int,
                              default=None,
                              help="serve /metrics, /healthz, /readyz and "
                                   "/vars on 127.0.0.1:PORT for the "
                                   "duration of the run (0: ephemeral)")
    characterize.add_argument("--dead-letters", metavar="PATH",
                              default=None,
                              help="with --error-policy quarantine: dump "
                                   "the quarantined row sample to PATH as "
                                   "NDJSON")
    characterize.set_defaults(handler=cmd_characterize)

    report = subparsers.add_parser(
        "report", help="full characterization report"
    )
    report.add_argument("trace")
    _add_error_policy_flag(report)
    report.add_argument("--support", type=int, default=5)
    report.add_argument("--capacity", type=int, default=16 * 1024)
    report.add_argument("--top", type=int, default=20)
    report.add_argument("--window", type=float, default=None)
    report.set_defaults(handler=cmd_report)

    drift = subparsers.add_parser(
        "drift", help="concept-drift experiment: A -> B -> A (Fig. 10)"
    )
    drift.add_argument("trace_a")
    drift.add_argument("trace_b")
    _add_error_policy_flag(drift)
    drift.add_argument("--segment", type=int, default=None,
                       help="requests per segment (default: fits the traces)")
    drift.add_argument("--capacity", type=int, default=1024)
    drift.add_argument("--window", type=float, default=None)
    drift.set_defaults(handler=cmd_drift)

    mine = subparsers.add_parser(
        "mine", help="offline frequent itemset mining (ground truth)"
    )
    mine.add_argument("trace")
    _add_error_policy_flag(mine)
    mine.add_argument("--algorithm", choices=sorted(_MINERS),
                      default="eclat")
    mine.add_argument("--support", type=int, default=5)
    mine.add_argument("--window", type=float, default=None)
    mine.add_argument("--max-transaction", type=int, default=8)
    mine.add_argument("--top", type=int, default=20)
    mine.set_defaults(handler=cmd_mine)

    cache_sim = subparsers.add_parser(
        "cache-sim",
        help="hit-ratio sweep of the correlation-prefetching cache",
    )
    cache_sim.add_argument("trace")
    _add_error_policy_flag(cache_sim)
    cache_sim.add_argument("--sizes", type=int, nargs="+",
                           default=[1024, 4096],
                           help="cache capacities in blocks to sweep "
                                "(default: 1024 4096)")
    cache_sim.add_argument("--policies", nargs="+",
                           choices=["lru", "arc", "clock2q"],
                           default=["lru", "clock2q"],
                           help="eviction policies to sweep "
                                "(default: lru clock2q)")
    cache_sim.add_argument("--modes", nargs="+",
                           choices=["none", "synopsis", "offline"],
                           default=["none", "synopsis", "offline"],
                           help="prefetch modes: none (baseline), synopsis "
                                "(online closed loop), offline "
                                "(MITHRIL-style mined-trace baseline)")
    cache_sim.add_argument("--backend", choices=list(BACKEND_NAMES),
                           default="two-tier",
                           help="synopsis backend for the online mode")
    cache_sim.add_argument("--capacity", type=int, default=16 * 1024,
                           help="synopsis per-tier table entries "
                                "(default 16K)")
    cache_sim.add_argument("--budget", type=int, default=2,
                           help="partners prefetched per access "
                                "(default 2)")
    cache_sim.add_argument("--min-support", type=int, default=2,
                           help="confidence floor on a partner's tally "
                                "(default 2)")
    cache_sim.add_argument("--lookahead", type=int, default=8,
                           help="offline miner association window "
                                "(default 8)")
    cache_sim.add_argument("--window", type=float, default=None,
                           help="static window seconds "
                                "(default: dynamic 2x latency)")
    cache_sim.add_argument("--max-transaction", type=int, default=8)
    cache_sim.add_argument("--json", metavar="PATH",
                           help="merge results into PATH as JSON "
                                "(BENCH_cache.json convention)")
    cache_sim.set_defaults(handler=cmd_cache_sim)

    serve = subparsers.add_parser(
        "serve", help="run the streaming ingest/query server"
    )
    serve.add_argument("--unix", metavar="PATH",
                       help="serve on a Unix socket at PATH")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=None,
                       help="serve on TCP host:port (ignored with --unix)")
    serve.add_argument("--capacity", type=int, default=16 * 1024)
    serve.add_argument("--support", type=int, default=5)
    serve.add_argument("--shards", type=int, default=1)
    serve.add_argument("--backend", choices=list(BACKEND_NAMES),
                       default="two-tier",
                       help="synopsis backend (see characterize --backend)")
    serve.add_argument("--shard-processes", action="store_true",
                       help="back each tenant's shards with one worker "
                            "process per shard (GIL-free ingest)")
    serve.add_argument("--snapshot-interval", type=int, default=1000)
    serve.add_argument("--soft-limit", type=int, default=8192,
                       help="queued events per connection before THROTTLE "
                            "replies (default 8192)")
    serve.add_argument("--hard-limit", type=int, default=65536,
                       help="queued events per connection before frames "
                            "are rejected (default 65536)")
    serve.add_argument("--checkpoint", metavar="PATH",
                       help="restore from PATH at startup if present; "
                            "checkpoint there on shutdown and on "
                            "CHECKPOINT frames")
    serve.add_argument("--max-tenants", type=int, default=16)
    serve.add_argument("--wal-dir", metavar="DIR", default=None,
                       help="journal every accepted frame to a write-ahead "
                            "log in DIR and recover from it at startup")
    serve.add_argument("--fsync", choices=["always", "interval", "never"],
                       default="interval",
                       help="WAL durability: always=fsync per frame, "
                            "interval=fsync on a timer (default; survives "
                            "process death), never=OS flush only")
    serve.add_argument("--fsync-interval", type=float, default=0.05,
                       help="seconds between WAL fsyncs with "
                            "--fsync interval (default 0.05)")
    serve.add_argument("--keep-wal", action="store_true",
                       help="retain checkpoint-covered WAL segments "
                            "instead of truncating them (full history; "
                            "lets an intact journal rescue a corrupt "
                            "checkpoint)")
    serve.add_argument("--heartbeat", metavar="PATH", default=None,
                       help="touch PATH periodically for an external "
                            "supervisor to watch")
    serve.add_argument("--dead-letters", metavar="PATH", default=None,
                       help="dump backpressure-rejected frames here as "
                            "NDJSON on shutdown (default: "
                            "<wal-dir>/dead-letters.ndjson)")
    serve.add_argument("--supervise", action="store_true",
                       help="run the server in a supervised worker "
                            "process: restart on crash or stale "
                            "heartbeat, give up on a crash loop")
    serve.add_argument("--max-restarts", type=int, default=5,
                       help="restart budget within --restart-window "
                            "before the supervisor gives up (default 5)")
    serve.add_argument("--restart-window", type=float, default=30.0,
                       help="crash-loop detection window, seconds "
                            "(default 30)")
    serve.add_argument("--heartbeat-timeout", type=float, default=None,
                       help="with --supervise: restart a worker whose "
                            "heartbeat is older than this many seconds "
                            "(default: liveness only)")
    serve.add_argument("--http-port", type=int, default=None,
                       help="serve the ops endpoint (/metrics /healthz "
                            "/readyz /vars) on this port (0: ephemeral); "
                            "with --supervise the worker process binds it")
    serve.add_argument("--http-host", default="127.0.0.1",
                       help="bind address for --http-port "
                            "(default 127.0.0.1)")
    serve.add_argument("--trace-log", metavar="PATH", default=None,
                       help="append sampled request-trace spans to PATH "
                            "as NDJSON (client/server/shard span tree)")
    serve.add_argument("--trace-sample", type=float, default=0.01,
                       help="fraction of requests to trace (default 0.01; "
                            "slow requests are always recorded)")
    serve.add_argument("--trace-slow", type=float, default=0.25,
                       help="spans at least this many seconds long are "
                            "recorded regardless of sampling "
                            "(default 0.25)")
    serve.set_defaults(handler=cmd_serve)

    send = subparsers.add_parser(
        "send", help="stream a trace file into a running server"
    )
    send.add_argument("trace")
    _add_error_policy_flag(send)
    send.add_argument("--unix", metavar="PATH",
                      help="connect to a Unix socket at PATH")
    send.add_argument("--host", default="127.0.0.1")
    send.add_argument("--port", type=int, default=None)
    send.add_argument("--batch-size", type=int, default=512,
                      help="events per BATCH frame (default 512)")
    send.add_argument("--tenant", default=None,
                      help="route events onto this tenant's engine")
    send.add_argument("--top", type=int, default=0,
                      help="after streaming, query and print the top-K "
                           "correlations (default 0: skip)")
    send.add_argument("--support", type=int, default=5)
    send.add_argument("--deadline", type=float, default=None,
                      help="per-request deadline in seconds, retries and "
                           "backoff included (default: unbounded)")
    send.add_argument("--retries", type=int, default=3,
                      help="reconnect/overload retries per request "
                           "(default 3)")
    send.add_argument("--breaker", action="store_true",
                      help="fail fast through a circuit breaker while "
                           "the server is down")
    send.set_defaults(handler=cmd_send)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
