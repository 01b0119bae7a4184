"""Helpers of the repository benchmark (``perfbench/run.py``).

The harness drives the system only through its public API, from outside:
it builds seeded inputs (:mod:`.inputs`), runs one workload per process
(:mod:`.workloads`), times set-up in fresh interpreters (:mod:`.probe`,
:mod:`.serve_launcher`), records layer spans in a separate traced run
(:mod:`.spans`) and reads host and process counters from ``/proc``
(:mod:`.hostinfo`).
"""
