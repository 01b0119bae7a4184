"""The benchmark's workloads and the run that measures one of them.

Every workload is a closed loop with one caller: the next call starts when
the previous one has returned.  The
caller follows the seeded plan of :mod:`.inputs` -- request-sized batches,
single events and top-k queries -- until the run's seconds are up and each
percentile it reports has ten samples beyond it.

How a run guards against known noise:

* the inputs are built first and then frozen out of the cyclic garbage
  collector (``gc.freeze``), so collection pauses do not grow with them;
* set-up is timed in fresh interpreters, after one discarded warm spawn,
  and reported as the median of several spawns, half of them timed before
  the measured run and half after it;
* the measured instance is the only one the process times, after a
  warm-up on a throwaway instance;
* serve-hm runs ``repro serve`` in its own process, with the benchmark as
  its only client, so client and server never share an interpreter;
* the measured processes are pinned to one CPU, so a halted vCPU never
  has to be woken mid-run;
* timings are exact order statistics over every raw sample of the run,
  and a run goes on past its seconds until each percentile it reports has
  ten samples beyond it.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.accuracy import detection_metrics
from repro.fim.pairs import exact_pair_counts
from repro.monitor.monitor import Monitor, TransactionRecorder
from repro.server.client import CharacterizationClient
from repro.resilience.policy import BackoffPolicy
from repro.telemetry.export import render_prometheus
from repro.telemetry.metrics import MetricsRegistry, get_default_registry

from . import hostinfo, systems
from .inputs import BATCH, EVENT, QUERY, Inputs, Mix, block_footprint, \
    make_inputs
from .layers import RunFacts, layer_metrics, parse_prometheus
from .spans import SpanRecorder, self_times
from .stats import min_samples, percentile

#: Fresh interpreters timed per run for ``setup_s`` (after one warm spawn),
#: half before the measured run and half after it; a server launch takes
#: seconds, so it is timed fewer times.
SETUP_SPAWNS = 4
SERVER_SPAWNS = 2
#: Seconds of warm-up traffic on a throwaway instance.
WARMUP_S = 1.0
#: A run stops at its deadline only once every percentile it reports has
#: enough samples; it gives up at this multiple of its seconds.
HARD_STOP_FACTOR = 3.0
#: The paper's headline: more than 90 % of frequent correlations captured.
RECALL_FLOOR = 0.9
#: The output checks of a single-shard system replay, one event at a
#: time, the events before the last query asked within this many events.
LANE_CHECK_EVENTS = 50_000
SERVER_START_TIMEOUT_S = 60.0
#: Samples each timed call kind needs: p99 for batches and single events,
#: p50 for queries, each with ten samples beyond it.
MINIMUMS = {BATCH: min_samples(99), EVENT: min_samples(99),
            QUERY: min_samples(50)}


@dataclass(frozen=True)
class Workload:
    name: str
    #: MSR-like trace model of :mod:`repro.workloads.enterprise`
    model: str
    mix: Mix
    #: Input events generated per second of run: headroom over the
    #: measured rate, so a faster program does not run out of input.
    input_rate: int
    #: Fix the model instance; the seed then picks a window of its trace
    #: (see :func:`~.inputs.make_inputs`).
    model_seed: Optional[int] = None


#: The client of ingest-stg-procs and serve-hm: ingest calls cut by the
#: program's default client batching on the trace's clock (about 190
#: events each, so ``submit_many`` takes the columnar lane), each followed
#: by one single event, so that every EVENT frame queues behind a batch
#: drain; one top-k query per 60 ingest calls puts QUERY frames at 15-19 %
#: of serve-hm's server CPU, near the ~15 % the workload is meant to have.
CLIENT_MIX = Mix(query_every=60)

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        # The stg model overflows the synopsis (70 % of bursts are cold),
        # on two process shards.
        Workload("ingest-stg-procs", "stg", CLIENT_MIX, 40_000),
        # hm fits the synopsis; the server is its own process.  hm's cost
        # per event follows its few hot extents (their lengths, how many
        # pairs turn frequent), which moved query_p50_ms by a third and
        # prefetch-hm's events_per_s by ~18 % between model instances on a
        # 2-vCPU VM, so the seed picks a window of one instance instead.
        Workload("serve-hm", "hm", CLIENT_MIX, 35_000, model_seed=1),
        # A call is one cache causality step (served before it trains);
        # 3 events is hm's mean transaction under the default window, so
        # each call is about one step of the closed loop.
        Workload("prefetch-hm", "hm", Mix(query_every=60, batch=3), 4_000,
                 model_seed=1),
    )
}


@dataclass
class RunResult:
    """One run's metrics, operation counts and output checks."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    checks: List[Tuple[str, bool, str]]
    notes: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return all(ok for _name, ok, _detail in self.checks)


# -- the closed loop -----------------------------------------------------------


@dataclass
class Drive:
    samples: Dict[str, List[float]]
    sent: int
    end: int
    attempted: int
    failed: int
    errors: List[str]
    #: when the first call began
    started: float
    #: when a query confirmed every event sent was characterized
    confirmed: float = 0.0

    @property
    def elapsed(self) -> float:
        return self.confirmed - self.started

    @property
    def events_per_s(self) -> float:
        return self.sent / self.elapsed


def drive(ops, inputs: Inputs, seconds: float,
          minimums: Dict[str, int]) -> Drive:
    """Follow the plan with one caller until ``seconds`` have passed and
    every call kind has its minimum sample count (or the input ends)."""
    events = inputs.events
    samples: Dict[str, List[float]] = {BATCH: [], EVENT: [], QUERY: []}
    errors: List[str] = []
    clock = time.perf_counter
    sent = end = attempted = failed = 0
    started = clock()
    deadline = started + seconds
    hard_stop = started + HARD_STOP_FACTOR * seconds
    calls = {BATCH: ops.batch, EVENT: ops.event, QUERY: ops.query}
    for kind, first, count in inputs.plan:
        now = clock()
        if now >= hard_stop or (now >= deadline and all(
                len(samples[key]) >= need
                for key, need in minimums.items())):
            break
        if kind == BATCH:
            argument = events[first:first + count]
        elif kind == EVENT:
            argument = events[first]
        else:
            argument = first  # a query gets the events sent before it
        call = calls[kind]
        attempted += 1
        began = clock()
        try:
            ok = call(argument)
        except Exception as exc:  # counted as a failed operation
            ok = False
            errors.append(f"{kind}: {type(exc).__name__}: {exc}")
        ended = clock()
        samples[kind].append(ended - began)
        if not ok:
            failed += 1
        sent += count
        end = first + count
    return Drive(samples, sent, end, attempted, failed, errors, started)


class InProcessOps:
    """Calls into an in-process service.

    Keeps (events sent before it, answer) of the last query asked within
    :data:`LANE_CHECK_EVENTS` events, for the output checks.
    """

    def __init__(self, service) -> None:
        self.service = service
        self.kept: Tuple[int, list] = (0, [])

    def batch(self, events) -> bool:
        return self.service.submit_many(events) == len(events)

    def event(self, event) -> bool:
        self.service.submit(event)
        return True

    def query(self, sent_before: int) -> bool:
        # The call a server QUERY frame makes (it answers with the first
        # TOP_K), so both mean the same.
        service = self.service
        pairs = service.analyzer.frequent_pairs(service.min_support)
        if sent_before <= LANE_CHECK_EVENTS:
            self.kept = (sent_before, pairs)
        return True


class SocketOps:
    """Calls over the server's socket; THROTTLE replies are counted."""

    def __init__(self, client: CharacterizationClient) -> None:
        self.client = client
        self.throttles = 0

    def _accepted(self, reply, count: int) -> bool:
        if reply.get("type") == "THROTTLE":
            self.throttles += 1
        return (reply.get("type") in ("OK", "THROTTLE")
                and reply.get("accepted") == count
                and not reply.get("duplicate"))

    def batch(self, events) -> bool:
        return self._accepted(self.client.send_events(events), len(events))

    def event(self, event) -> bool:
        return self._accepted(self.client.send_event(event), 1)

    def query(self, _unused) -> bool:
        self.client.query_top(k=systems.TOP_K,
                              min_support=systems.MIN_SUPPORT)
        return True


# -- shared pieces -------------------------------------------------------------


def child_env(root: str) -> Dict[str, str]:
    """Environment for the interpreters a run launches."""
    env = dict(os.environ)
    paths = [os.path.join(root, "perfbench"), os.path.join(root, "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _transactions(events, flush: bool):
    """The run's transactions, cut again by a separate monitor (the
    paper's dual pipeline: the same stream, recorded for offline use)."""
    recorder = TransactionRecorder()
    monitor = Monitor(sinks=[recorder], registry=MetricsRegistry())
    monitor.on_events(events)
    if flush:
        monitor.flush()
    return recorder.extent_transactions()


def _recall(transactions, resident_pairs) -> float:
    truth = exact_pair_counts(transactions)
    return detection_metrics(truth, resident_pairs,
                             min_support=systems.MIN_SUPPORT).weighted_recall


#: (metric, call kind, percentile) of every reported round trip
PERCENTILES = (("ingest_p50_ms", BATCH, 50), ("ingest_p99_ms", BATCH, 99),
               ("event_p99_ms", EVENT, 99), ("query_p50_ms", QUERY, 50))


def _timings(result: Drive) -> Dict[str, float]:
    timings = {"events_per_s": result.events_per_s}
    for metric, kind, q in PERCENTILES:
        timings[metric] = 1e3 * percentile(result.samples[kind], q).value
    return timings


def _percentile_notes(result: Drive) -> List[str]:
    return [f"{kind} " + percentile(result.samples[kind], q)
            .describe(1e3, "ms") for _metric, kind, q in PERCENTILES]


def _operation_checks(result: Drive) -> List[Tuple[str, bool, str]]:
    detail = "; ".join(result.errors[:3])
    return [("no failed operations", result.failed == 0,
             f"{result.failed} of {result.attempted} failed {detail}")]


# -- in-process workloads ------------------------------------------------------


#: One set-up probe: launch-to-first-event seconds, import seconds and
#: the peak resident memory (KiB) of a process that has just built the
#: system.
Setup = Tuple[float, float, int]


def _probe_setup(root: str, workload: Workload, inputs: Inputs,
                 cache_blocks: Optional[int], spawns: int,
                 warm: bool) -> List[Setup]:
    """Time ``spawns`` fresh interpreters that build the system, after one
    discarded warm spawn when ``warm``."""
    request = json.dumps({
        "workload": workload.name, "cache_blocks": cache_blocks,
        "event": systems.event_to_dict(inputs.events[0]),
    }) + "\n"
    env = child_env(root)
    setups: List[Setup] = []
    for index in range(spawns + warm):
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "harness.probe"], env=env, cwd=root,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            proc.stdin.write(request)
            proc.stdin.flush()
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        if index or not warm:
            ready = json.loads(line)
            setups.append((elapsed, ready["import_s"], ready["peak_kib"]))
    return setups


def _median_setup(setups: List[Setup]) -> Setup:
    return tuple(statistics.median(column) for column in zip(*setups))


def _inprocess_targets(service) -> List[Tuple[object, str, str]]:
    import repro.cache.loop

    targets = [
        (service, "submit_many", "service.submit_many"),
        (service, "submit", "service.submit"),
        (service, "snapshot", "service.snapshot"),
        (service.monitor, "on_events", "monitor.on_events"),
        (service.monitor, "on_event", "monitor.on_event"),
    ]
    analyzer = service.analyzer
    if service.shard_processes:
        targets.append((analyzer, "process_transaction_batch",
                        "engine.round"))
    else:
        targets += [
            (analyzer, name, f"core.apply.{name}")
            for name in ("process_transaction_batch", "process_batch",
                         "process_transaction")
        ]
    targets += [
        (analyzer, name, f"core.query.{name}")
        for name in ("frequent_pairs", "kind_summary", "correlated_with")
        if hasattr(analyzer, name)
    ]
    if getattr(service, "cache", None) is not None:
        targets += [
            (repro.cache.loop.CacheDriver, "on_transaction",
             "cache.driver"),
            (service.cache, "access", "cache.access"),
            (service.cache, "prefetch", "cache.prefetch"),
            (service.prefetcher, "partners_of", "cache.partners_of"),
        ]
    return targets


def run_inprocess(root: str, workload: Workload, inputs: Inputs,
                  seconds: float, traced: bool) -> RunResult:
    cache_blocks = None
    if workload.name == "prefetch-hm":
        cache_blocks = max(1, int(systems.CACHE_FRACTION
                                  * block_footprint(inputs.events)))
    setups = _probe_setup(root, workload, inputs, cache_blocks,
                          SETUP_SPAWNS // 2, warm=True)
    built_kib = _median_setup(setups)[2]

    # Reset before the warm-up: the measured instance reuses the memory
    # the throwaway frees, which a later reset would not see.
    baseline_kib = hostinfo.reset_peak_rss()
    throwaway = systems.build(workload.name, registry=MetricsRegistry(),
                              cache_blocks=cache_blocks)
    try:
        drive(InProcessOps(throwaway), inputs, WARMUP_S, {})
    finally:
        throwaway.release()
    del throwaway
    gc.collect()

    # One placement in every run: the system's processes share one CPU.
    hostinfo.pin(0, 0)
    service = systems.build(workload.name, cache_blocks=cache_blocks)
    single_shard = service.shards == 1
    recorder = gc_timer = None
    routed = [0] * service.shards
    try:
        workers = [child.pid for child in multiprocessing.active_children()]
        for pid in workers:
            hostinfo.pin(pid, 0)
        if traced:
            import repro.engine.procshard

            def count_routed(work) -> None:
                for index, (_items, pairs) in enumerate(work):
                    routed[index] += len(pairs[0])

            recorder = SpanRecorder(run_id=f"{workload.name}-{os.getpid()}")
            recorder.install_all(_inprocess_targets(service))
            if service.shard_processes:
                recorder.install(repro.engine.procshard, "route_batch",
                                 "engine.route_batch",
                                 on_result=count_routed)
            gc_timer = hostinfo.GcTimer().start()
        steal_before = hostinfo.cpu_counters()
        cpu_before = time.process_time()
        workers_before = [hostinfo.process_cpu_s(pid) for pid in workers]

        ops = InProcessOps(service)
        result = drive(ops, inputs, seconds, MINIMUMS)
        service.flush()
        snapshot = service.snapshot()
        result.confirmed = time.perf_counter()

        cpu_s = time.process_time() - cpu_before
        worker_cpu = [hostinfo.process_cpu_s(pid) - before
                      for pid, before in zip(workers, workers_before)]
        steal = hostinfo.steal_fraction(steal_before, hostinfo.cpu_counters())
        if recorder is not None:
            recorder.uninstall()
            gc_timer.stop()
        # A process that runs the system needs what a freshly built one
        # holds plus what the run added, and its shard workers.
        peak_kib = (built_kib
                    + hostinfo.peak_rss_kib(os.getpid()) - baseline_kib
                    + sum(hostinfo.peak_rss_kib(pid) for pid in workers))
        resident = list(service.analyzer.pair_frequencies())
        if traced and service.shard_processes:
            service.analyzer.collect_worker_metrics()
        counters = parse_prometheus(render_prometheus(get_default_registry())) \
            if traced else []
        cache_stats = getattr(service, "cache_stats", None)
    finally:
        if recorder is not None:
            recorder.uninstall()
        if gc_timer is not None:
            gc_timer.stop()
        service.release()
        hostinfo.unpin()
    setups += _probe_setup(root, workload, inputs, cache_blocks,
                           SETUP_SPAWNS - SETUP_SPAWNS // 2, warm=False)
    setup_s, import_s, _built_kib = _median_setup(setups)

    # -- output checks, outside every timed region ---------------------------
    sent_events = inputs.events[:result.end]
    transactions = _transactions(sent_events, flush=True)
    recall = _recall(transactions, resident)
    checks = _operation_checks(result)
    checks.append(("every event counted once", snapshot.events == result.sent,
                   f"monitor saw {snapshot.events}, sent {result.sent}"))
    checks.append(("every transaction characterized",
                   snapshot.transactions == len(transactions),
                   f"service {snapshot.transactions}, "
                   f"reference {len(transactions)}"))
    checks.append((f"recall >= {RECALL_FLOOR}", recall >= RECALL_FLOOR,
                   f"weighted recall {recall:.4f}"))
    if single_shard:
        # A kept answer against the same events fed one by one through
        # ``submit``.  Process shards route by their own hash, so no
        # in-process service is their reference, and replaying them one
        # event at a time costs a pipe round per transaction.
        asked_at, answer = ops.kept
        reference = systems.reference()
        try:
            for event in inputs.events[:asked_at]:
                reference.submit(event)
            expected = reference.analyzer.frequent_pairs(
                reference.min_support)
        finally:
            reference.release()
        checks.append(("query answer equals the per-event lane's",
                       answer == expected and len(answer) > 0,
                       f"{len(answer)} vs {len(expected)} pairs after "
                       f"{asked_at} events"))

    notes = _percentile_notes(result)
    notes.append(f"events sent {result.sent} in {result.elapsed:.3f} s; "
                 f"steal {steal:.4f}")
    metrics = _timings(result)
    if traced:
        table = self_times(recorder.spans)
        metrics.update(layer_metrics(RunFacts(
            events=result.sent, wall_s=result.elapsed,
            events_per_s=result.events_per_s, spans=table,
            counters=counters, cpu_s=cpu_s, worker_cpu_s=worker_cpu,
            routed_pairs=routed if service.shard_processes else [],
            gc_s=gc_timer.seconds, import_s=import_s, steal_frac=steal,
            span_count=len(recorder.spans),
            cache={"evicted_unused": cache_stats.prefetch_evicted_unused}
            if cache_stats is not None else {},
        )))
    else:
        metrics.update(setup_s=setup_s, recall=recall,
                       peak_rss_mb=peak_kib / 1024.0)
    return RunResult(metrics, result.attempted, result.failed, checks, notes)


# -- serve-hm ------------------------------------------------------------------


class ServerProcess:
    """One ``repro serve`` process on a Unix socket with its own WAL."""

    def __init__(self, root: str, workdir: str, tag: str,
                 spans_out: Optional[str] = None) -> None:
        self.address = os.path.join(workdir, f"{tag}.sock")
        wal_dir = os.path.join(workdir, f"{tag}-wal")
        args = systems.serve_args(self.address, wal_dir)
        if spans_out is None:
            command = [sys.executable, "-m", "repro.cli.main", *args]
        else:
            command = [sys.executable, "-m", "harness.serve_launcher",
                       spans_out, "--", *args]
        self._log = open(os.path.join(workdir, f"{tag}.log"), "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(command, env=child_env(root), cwd=root,
                                     stdout=self._log, stderr=self._log)
        try:
            self._await_pong()
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - started

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _await_pong(self) -> None:
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}")
            if time.monotonic() > deadline:
                raise RuntimeError("server did not answer PING in time")
            if os.path.exists(self.address):
                client = CharacterizationClient(
                    self.address, policy=BackoffPolicy(retries=0))
                try:
                    client.ping()
                    return
                except OSError:
                    pass
                finally:
                    client.close()
            time.sleep(0.002)

    def stop(self) -> None:
        """SIGINT drains the server; it must exit within the timeout."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def run_serve(root: str, workload: Workload, inputs: Inputs, seconds: float,
              traced: bool, workdir: str) -> RunResult:
    warm = ServerProcess(root, workdir, "warm")
    try:
        with CharacterizationClient(warm.address) as client:
            drive(SocketOps(client), inputs, WARMUP_S, {})
    finally:
        warm.stop()

    baseline_kib = hostinfo.reset_peak_rss()
    launches: List[float] = []
    server: Optional[ServerProcess] = None
    spans_out = os.path.join(workdir, "server-spans.json")
    before = SERVER_SPAWNS // 2
    try:
        # The last launch timed before the run is the measured server.
        for index in range(0 if traced else before):
            candidate = ServerProcess(root, workdir, f"setup{index}")
            launches.append(candidate.ready_s)
            if index == before - 1:
                server = candidate
            else:
                candidate.stop()
        if traced:
            server = ServerProcess(root, workdir, "traced",
                                   spans_out=spans_out)

        # Client and server share one CPU in every run (see the module
        # docstring: a halted vCPU is never woken mid-run).
        hostinfo.pin(0, 0)
        hostinfo.pin(server.pid, 0)
        client = CharacterizationClient(server.address)
        ops = SocketOps(client)
        recorder = None
        if traced:
            import repro.server.protocol

            recorder = SpanRecorder(run_id=f"client-{os.getpid()}")
            recorder.install(repro.server.protocol, "batch_frame",
                             "client.batch_frame")
            recorder.install(repro.server.protocol, "encode_frame",
                             "client.encode_frame")
        try:
            steal_before = hostinfo.cpu_counters()
            server_before = hostinfo.process_cpu_s(server.pid)
            result = drive(ops, inputs, seconds, MINIMUMS)
            stats = client.stats()
            result.confirmed = time.perf_counter()
            server_cpu = hostinfo.process_cpu_s(server.pid) - server_before
            steal = hostinfo.steal_fraction(steal_before,
                                            hostinfo.cpu_counters())
        finally:
            if recorder is not None:
                recorder.uninstall()
        peak_kib = (hostinfo.peak_rss_kib(os.getpid()) - baseline_kib
                    + hostinfo.peak_rss_kib(server.pid))
        exposition = client.metrics_prometheus() if traced else ""
        resident = [pair for pair, _count in client.query_top(
            k=2 ** 31, min_support=1)]
        client_counts = (client.overload_retries, client.reconnects,
                         client.duplicates_acked)
        client.close()
    finally:
        hostinfo.unpin()
        if server is not None:
            server.stop()
    for index in range(before, 0 if traced else SERVER_SPAWNS):
        candidate = ServerProcess(root, workdir, f"setup{index}")
        launches.append(candidate.ready_s)
        candidate.stop()

    sent_events = inputs.events[:result.end]
    transactions = _transactions(sent_events, flush=False)
    recall = _recall(transactions, resident)
    checks = _operation_checks(result)
    seen = stats["monitor"]["events_seen"]
    checks.append(("every event counted once", seen == result.sent,
                   f"server saw {seen}, sent {result.sent}"))
    checks.append(("every transaction characterized",
                   stats["transactions"] == len(transactions),
                   f"server {stats['transactions']}, "
                   f"reference {len(transactions)}"))
    checks.append(("no overload, retry or poisoned replies",
                   client_counts == (0, 0, 0)
                   and stats["poisoned_batches"] == 0
                   and stats["rejected_events"] == 0,
                   f"overload retries/reconnects/duplicates {client_counts}, "
                   f"poisoned {stats['poisoned_batches']}, "
                   f"rejected {stats['rejected_events']}"))
    checks.append((f"recall >= {RECALL_FLOOR}", recall >= RECALL_FLOOR,
                   f"weighted recall {recall:.4f}"))

    notes = _percentile_notes(result)
    notes.append(f"events sent {result.sent} in {result.elapsed:.3f} s; "
                 f"throttled replies {ops.throttles}; steal {steal:.4f}")
    metrics = _timings(result)
    if traced:
        with open(spans_out, encoding="utf-8") as stream:
            server_run = json.load(stream)
        # perf_counter is the system-wide monotonic clock, so the server's
        # spans can be cut to the timed region (not the queries after it).
        spans = [tuple(span) for span in server_run["spans"]
                 if span[4] >= result.started
                 and span[5] <= result.confirmed]
        metrics.update(layer_metrics(RunFacts(
            events=result.sent, wall_s=result.elapsed,
            events_per_s=result.events_per_s, spans=self_times(spans),
            client_spans=self_times(recorder.spans),
            counters=parse_prometheus(exposition), server_counters=True,
            server_cpu_s=server_cpu,
            client_call_s=sum(sum(values)
                              for values in result.samples.values()),
            gc_s=server_run["gc_s"], import_s=server_run["import_s"],
            steal_frac=steal, span_count=len(spans) + len(recorder.spans),
        )))
    else:
        metrics.update(setup_s=statistics.median(launches), recall=recall,
                       peak_rss_mb=peak_kib / 1024.0)
    return RunResult(metrics, result.attempted, result.failed, checks, notes)


# -- one run -------------------------------------------------------------------


def run(root: str, name: str, seed: int, seconds: float,
        traced: bool) -> RunResult:
    """Build the seeded inputs, then measure one workload once."""
    workload = WORKLOADS[name]
    inputs = make_inputs(workload.model, int(workload.input_rate * seconds),
                         workload.mix, seed, workload.model_seed)
    # The inputs live for the whole run; keep them out of every collection.
    gc.collect()
    gc.freeze()
    if name in systems.SERVER_WORKLOADS:
        # Relative to the checkout root (the working directory): a Unix
        # socket path must stay short.
        workdir = os.path.join(".perfbench", f"run-{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        try:
            return run_serve(root, workload, inputs, seconds, traced, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return run_inprocess(root, workload, inputs, seconds, traced)
