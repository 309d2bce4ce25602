"""Start ``repro serve`` for the benchmark, optionally traced.

    python3 perfbench/serve_launcher.py [--trace-out PATH] <repro serve args>

Without ``--trace-out`` this is exactly ``repro.cli.main(["serve", ...])``.
With it, the service classes are wrapped before the server starts, each
HTTP request's spans carry the request id the client sends in the
``X-Perfbench-Request`` header, and the spans are written to PATH when
the server stops (SIGINT or SIGTERM).
"""

from __future__ import annotations

import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import LayoutError, ensure_layout  # noqa: E402
from tracer import Tracer  # noqa: E402

REQUEST_HEADER = "X-Perfbench-Request"
#: Server span ids start here so they never collide with client ids.
SERVER_ID_BASE = 1_000_000_000


def instrument_server(tracer: Tracer) -> None:
    """Wrap the serving, multiplexing, core and matching call points at
    class and module level (the server builds its objects itself)."""
    from repro.clustering import shared
    from repro.matching import alignment
    from repro.multiplex import provider, scheduler
    from repro.retrieval import engine as engine_module
    from repro.retrieval import inverted, planner, shards
    from repro.serving import httpd, service

    tracer.wrap(service.MatchService, "match", "serving.match_call")
    tracer.wrap(service.MatchService, "stream", "serving.stream_call")
    tracer.wrap(shards.ShardedMatchEngine, "match", "serving.engine")
    tracer.wrap(engine_module.MatchEngine, "match", "retrieval.match")
    tracer.wrap(planner, "plan_query", "retrieval.plan_query")
    tracer.wrap(planner, "gather", "retrieval.gather")
    tracer.wrap(planner, "screen", "retrieval.screen")
    tracer.wrap(
        getattr(inverted, "InvertedScreen", None), "survivors",
        "retrieval.survivors",
    )
    tracer.wrap(
        engine_module, "cluster_feature_distance",
        "matching.cluster_feature_distance",
    )
    tracer.wrap(
        engine_module, "anytime_alignment_search",
        "matching.anytime_alignment_search",
    )
    tracer.wrap(
        engine_module, "cell_level_distance", "matching.cell_level_distance"
    )
    tracer.count_calls(
        alignment, "cell_level_distance", "matching.cell_distance_evals"
    )
    tracer.wrap(scheduler.SlideScheduler, "feed", "multiplex.feed")
    tracer.wrap(
        provider.MultiResolutionProvider, "batch_neighborhoods",
        "multiplex.batch_neighborhoods",
    )
    tracer.wrap(shared.SharedCSGS, "ingest", "core.shared_ingest")
    tracer.wrap(shared.SharedCSGS, "emit", "core.shared_emit")
    tracer.wrap(shared.SharedCSGS, "begin_window", "core.shared_begin_window")

    handler = httpd.MatchRequestHandler
    original = handler.do_POST

    def do_POST(self):
        raw = self.headers.get(REQUEST_HEADER)
        tracer.request = int(raw) if raw and raw.isdigit() else -1
        try:
            return original(self)
        finally:
            tracer.request = -1

    handler.do_POST = do_POST


def _stop(signum, frame):
    raise KeyboardInterrupt


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out = argv[1]
        argv = argv[2:]
    try:
        ensure_layout()
    except LayoutError as error:
        print(f"serve_launcher: {error}", file=sys.stderr)
        return 2
    # The CLI stops cleanly on KeyboardInterrupt; SIGTERM takes that path.
    signal.signal(signal.SIGTERM, _stop)
    tracer = None
    if trace_out is not None:
        tracer = Tracer(id_base=SERVER_ID_BASE)
        instrument_server(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *argv])
    finally:
        if tracer is not None:
            tracer.dump(trace_out)


if __name__ == "__main__":
    raise SystemExit(main())
