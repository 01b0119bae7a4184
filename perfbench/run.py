"""The repository benchmark: one workload per process, or all of them.

One run::

    python3 perfbench/run.py --workload serve-hm --seed 7 --seconds 20 --trace 0

is ``--segments`` (default 2) fresh processes, one after the other, that
each build the workload's inputs from the seed, measure a new system for
their share of the seconds and check its outputs.  The run prints every
segment's report and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- each metric the median over the segments;
the end-to-end metrics of ``BENCHMARK.json`` untraced (``--trace 0``), its
per-layer metrics traced (``--trace 1``).  The exit code is 1 when an
output check fails.

Without ``--workload`` every workload runs, each in a fresh process,
untraced and traced in alternating order for ``--pairs`` seeds; the
summary gives each metric's median and quartiles, the layer shares and
the tracing overhead (1 - traced / untraced events per second, per pair,
sign kept).  ``--record PATH`` also writes that summary as JSON.

Run it from the root of a checkout: it measures the program in ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Fresh processes a run measures in turn.  The host's speed drifts by
#: ~15 % over tens of seconds; two segments average over more of it than
#: one, and each keeps the stream short enough that a segment's recall
#: reflects the synopsis, not the stream's length.
SEGMENTS = 2


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _check_checkout() -> None:
    """Refuse to run anywhere but the root of a checkout with the program."""
    missing = [path for path in ("BENCHMARK.json",
                                 os.path.join("src", "repro", "__init__.py"))
               if not os.path.isfile(os.path.join(ROOT, path))]
    if missing:
        print(f"error: {ROOT} is not a checkout of the program "
              f"(missing {', '.join(missing)})", file=sys.stderr)
        sys.exit(2)


def run_segment(args, spec: dict) -> int:
    """Measure one fresh system in this process."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from harness import hostinfo, workloads

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = workloads.run(ROOT, args.workload, args.seed, args.seconds,
                           bool(args.trace))
    missing = [m["name"] for m in wanted if m["name"] not in result.metrics]
    if missing:
        print(f"error: run produced no {', '.join(missing)}",
              file=sys.stderr)
        return 2
    host = hostinfo.host_record()
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    for note in result.notes:
        print("  " + note)
    for metric in wanted:
        value = result.metrics[metric["name"]]
        print(f"  {metric['name']:<26} {value:>16.6f} {metric['unit']}")
    for name, ok, detail in result.checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {m["name"]: {"value": result.metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0 if result.correct else 1


def _launch(workload: str, seed: int, seconds: float, trace: int,
            segments: int, echo: bool = False) -> dict:
    command = [sys.executable, os.path.abspath(__file__), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--segments", str(segments)]
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=900)
    except BaseException:
        # SIGTERM lets the child stop the processes it started.
        proc.terminate()
        proc.wait()
        raise
    if echo:
        sys.stdout.write(stdout)
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else {"correct": False, "metrics": {}}
    result["returncode"] = proc.returncode
    result["host"] = next((json.loads(line[5:]) for line in lines
                           if line.startswith("host ")), None)
    return result


def run_one(args, spec: dict) -> int:
    """Measure ``args.segments`` fresh systems, one process each, and
    report each metric's median over them."""
    parts = [_launch(args.workload, args.seed, args.seconds / args.segments,
                     args.trace, 1, echo=True)
             for _ in range(args.segments)]
    if any(not part["metrics"] for part in parts):
        print("error: a segment produced no result", file=sys.stderr)
        return 2
    correct = all(part["correct"] and part["returncode"] == 0
                  for part in parts)
    metrics = {name: {"value": statistics.median(
                   part["metrics"][name]["value"] for part in parts),
                      "unit": row["unit"]}
               for name, row in parts[0]["metrics"].items()}
    print(f"median of {args.segments} segments")
    for name, row in metrics.items():
        print(f"  {name:<26} {row['value']:>16.6f} {row['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(part["attempted"] for part in parts),
        "failed": sum(part["failed"] for part in parts),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args, spec: dict) -> int:
    """Every workload, untraced and traced, in fresh processes."""
    sys.path[:0] = [os.path.join(ROOT, "perfbench")]
    from harness.stats import quartiles

    record = {"seconds": args.seconds, "pairs": args.pairs,
              "first_seed": args.seed, "workloads": {}}
    healthy = True
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = {0: [], 1: []}
        for pair in range(args.pairs):
            seed = args.seed + pair
            for trace in ((0, 1) if pair % 2 == 0 else (1, 0)):
                result = _launch(workload, seed, args.seconds, trace,
                                 args.segments)
                if not (result["correct"] and result["returncode"] == 0):
                    healthy = False
                    print(f"FAILED: {workload} seed {seed} trace {trace} "
                          f"(exit {result['returncode']})", file=sys.stderr)
                runs[trace].append(result)
                record["host"] = result["host"] or record.get("host")
        summary = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            for metric in spec[key]:
                values = [r["metrics"][metric["name"]]["value"]
                          for r in runs[trace] if metric["name"] in
                          r.get("metrics", {})]
                if not values:
                    continue
                row = {"unit": metric["unit"], "values": values,
                       "median": statistics.median(values)}
                if len(values) > 1:
                    row.update(quartiles(values))
                summary[metric["name"]] = row
        overhead = [1.0 - traced["metrics"]["trace.events_per_s"]["value"]
                    / plain["metrics"]["events_per_s"]["value"]
                    for plain, traced in zip(runs[0], runs[1])
                    if plain.get("metrics") and traced.get("metrics")]
        summary["tracing_overhead"] = {"unit": "ratio", "values": overhead}
        if overhead:
            summary["tracing_overhead"]["median"] = \
                statistics.median(overhead)
        if len(overhead) > 1:
            summary["tracing_overhead"].update(quartiles(overhead))
        summary["steal_frac"] = [
            r["metrics"].get("host.steal_frac", {}).get("value")
            for r in runs[1] if r.get("metrics")]
        record["workloads"][workload] = summary
        print(f"\n{workload}")
        for name, row in summary.items():
            if isinstance(row, dict) and "median" in row:
                spread = f"  q1 {row['q1']:.6g}  q3 {row['q3']:.6g}" \
                    if "q1" in row else ""
                print(f"  {name:<26} {row['median']:>16.6f} "
                      f"{row['unit']}{spread}")
    if args.record:
        with open(args.record, "w", encoding="utf-8") as stream:
            json.dump(record, stream, indent=1, sort_keys=True)
    return 0 if healthy else 1


def main(argv=None) -> int:
    _check_checkout()
    os.chdir(ROOT)
    spec = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--segments", type=int, default=SEGMENTS,
                        help="fresh processes a run measures in turn")
    parser.add_argument("--pairs", type=int, default=1,
                        help="seeds per workload when running every one")
    parser.add_argument("--record", metavar="PATH",
                        help="write the all-workload summary as JSON")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.segments < 1:
        parser.error("--segments must be >= 1")
    # Exit through ``finally`` blocks, which stop the started processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.workload is None:
        return run_all(args, spec)
    if args.segments == 1:
        return run_segment(args, spec)
    return run_one(args, spec)


# Process-shard workers are spawned: they import this file again as
# ``__mp_main__`` and must not start a run of their own.
if __name__ == "__main__":
    sys.exit(main())
