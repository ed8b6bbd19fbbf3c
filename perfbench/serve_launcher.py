"""Run ``repro serve`` with the benchmark's layer tracing installed.

Usage: ``python perfbench/serve_launcher.py --trace-out FILE serve [ARGS...]``

SIGUSR1 marks the start of the measured window.  When the daemon drains
(SIGTERM), the launcher writes the per-layer aggregates and cache-tier
deltas accumulated since the mark to ``FILE`` (JSON), and the spans next
to it (``FILE`` with a ``.spans.jsonl`` suffix).
"""

from __future__ import annotations

import json
import signal
import sys

import tracing


def main(argv) -> int:
    if len(argv) < 2 or argv[0] != "--trace-out":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, serve_argv = argv[1], argv[2:]
    from repro.cli import main as cli_main

    tracer = tracing.Tracer()
    tracing.install(tracer)
    mark = {"trace": tracer.snapshot(), "cache": tracing.cache_stats()}

    def on_mark(signum, frame):
        mark["trace"] = tracer.snapshot()
        mark["cache"] = tracing.cache_stats()

    signal.signal(signal.SIGUSR1, on_mark)
    status = cli_main(serve_argv)
    cache: dict = {}
    tracing.add_cache_deltas(cache, mark["cache"], tracing.cache_stats())
    layers = tracing.diff_snapshots(mark["trace"], tracer.snapshot())
    tracer.write_spans(out_path + ".spans.jsonl", since=mark["trace"]["num_spans"])
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"layers": layers, "cache": cache}, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
