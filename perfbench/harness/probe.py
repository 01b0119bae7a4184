"""Set-up probe: one fresh interpreter that builds an in-process system.

Run as ``python -m harness.probe``.  It reads one JSON line from stdin --
the workload name, the first event of the run's input and, for
prefetch-hm, the cache size -- builds the system, submits that event,
answers one query (so process shards have to reply), prints one JSON line
and releases the system.  The parent times launch to that line.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main() -> int:
    started = time.perf_counter()
    from harness import systems
    from harness.hostinfo import peak_rss_kib

    imported = time.perf_counter()
    request = json.loads(sys.stdin.readline())
    service = systems.build(request["workload"],
                            cache_blocks=request.get("cache_blocks"))
    try:
        service.submit(systems.event_from_dict(request["event"]))
        service.snapshot()
        print(json.dumps({"ready": True, "import_s": imported - started,
                          "peak_kib": peak_rss_kib(os.getpid())}),
              flush=True)
    finally:
        service.release()
    return 0


if __name__ == "__main__":
    sys.exit(main())
