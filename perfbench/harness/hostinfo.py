"""Host and process facts read from ``/proc``.

* the host record (CPU count, Python, numpy, kernel) printed with every run;
* steal time from ``/proc/stat``, as a share of all CPU time in an interval;
* per-process CPU time from ``/proc/<pid>/stat``;
* peak memory: ``VmHWM`` from ``/proc/<pid>/status``, whose high-water
  mark a process resets by writing ``5`` to ``/proc/self/clear_refs``;
* wall time spent in garbage collection, through ``gc.callbacks``.
"""

from __future__ import annotations

import gc
import os
import platform
import sys
import time
from typing import Dict, Tuple

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: The CPUs this process may run on, before any pinning.
CPUS = sorted(os.sched_getaffinity(0))


def host_record() -> Dict[str, object]:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": platform.release(),
        "machine": platform.machine(),
    }


def cpu_counters() -> Tuple[int, int]:
    """(steal ticks, all ticks) summed over every CPU, from /proc/stat."""
    with open("/proc/stat", encoding="ascii") as stream:
        fields = stream.readline().split()
    # cpu user nice system idle iowait irq softirq steal [guest guest_nice]
    # guest time is already counted inside user and nice.
    ticks = [int(value) for value in fields[1:9]]
    return ticks[7], sum(ticks)


def steal_fraction(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def pin(pid: int, slot: int) -> None:
    """Pin a process (0: this one) to the ``slot``-th usable CPU, wrapping
    around, so the measured processes keep one placement in every run."""
    os.sched_setaffinity(pid, {CPUS[slot % len(CPUS)]})


def unpin() -> None:
    os.sched_setaffinity(0, CPUS)


def process_cpu_s(pid: int) -> float:
    """User plus system CPU seconds the process has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stream:
        text = stream.read()
    fields = text[text.rindex(")") + 2:].split()
    # fields[0] is the state (field 3 of proc(5)); utime, stime are 14, 15.
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def _status_kib(pid: int, key: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as stream:
        for line in stream:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(f"{key} missing from /proc/{pid}/status")


def peak_rss_kib(pid: int) -> int:
    """The process's resident-set high-water mark (VmHWM)."""
    return _status_kib(pid, "VmHWM")


def rss_kib(pid: int) -> int:
    return _status_kib(pid, "VmRSS")


def reset_peak_rss() -> int:
    """Reset this process's VmHWM; returns VmRSS right after the reset.

    The peak a run reports is the later VmHWM minus this baseline.  If the
    kernel refuses the reset, VmHWM keeps the earlier peak and the figure
    overstates the run's growth rather than hiding it.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as stream:
            stream.write("5")
    except OSError as exc:
        print(f"warning: cannot reset VmHWM ({exc})", file=sys.stderr)
    return rss_kib(os.getpid())


class GcTimer:
    """Accumulates wall time spent in garbage collection."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._started = 0.0

    def _callback(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started
            self.collections += 1

    def start(self) -> "GcTimer":
        gc.callbacks.append(self._callback)
        return self

    def stop(self) -> None:
        if self._callback in gc.callbacks:
            gc.callbacks.remove(self._callback)
