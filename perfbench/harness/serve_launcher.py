"""Traced launcher for ``repro serve`` (serve-hm's traced run).

Run as ``python -m harness.serve_launcher OUT -- serve ARGS...``.  It
times the server's imports, wraps the public calls of each layer at class
level (the server builds its instances inside the CLI), times garbage
collection, then hands over to the CLI's ``main``.  When the server exits
(SIGINT drains it), the spans and timings are written to ``OUT``.
"""

from __future__ import annotations

import sys
import time


def server_targets():
    """Class-level wrapping targets inside the server process."""
    from repro.core.analyzer import OnlineAnalyzer
    from repro.core.typed import TypedOnlineAnalyzer
    from repro.monitor.monitor import Monitor
    from repro.resilience.wal import WriteAheadLog
    from repro.service import CharacterizationService

    return [
        (CharacterizationService, "submit_many", "service.submit_many"),
        (Monitor, "on_events", "monitor.on_events"),
        (TypedOnlineAnalyzer, "process_transaction_batch",
         "core.apply.process_transaction_batch"),
        (TypedOnlineAnalyzer, "process_batch", "core.apply.process_batch"),
        (OnlineAnalyzer, "frequent_pairs", "core.query.frequent_pairs"),
        (WriteAheadLog, "append", "wal.append"),
    ]


def main(argv) -> int:
    out_path, separator, cli_args = argv[0], argv[1], argv[2:]
    if separator != "--":
        raise SystemExit("usage: serve_launcher OUT -- serve ARGS...")
    started = time.perf_counter()
    from repro.cli.main import main as cli_main
    # cmd_serve imports these lazily; count them as the server's imports.
    import repro.resilience.service  # noqa: F401
    import repro.server.server  # noqa: F401

    import_s = time.perf_counter() - started

    from harness.hostinfo import GcTimer
    from harness.spans import SpanRecorder

    recorder = SpanRecorder(run_id="server")
    recorder.install_all(server_targets())
    gc_timer = GcTimer().start()
    try:
        code = cli_main(cli_args)
    finally:
        gc_timer.stop()
        recorder.uninstall()
        recorder.dump(out_path, {"import_s": import_s,
                                 "gc_s": gc_timer.seconds})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
