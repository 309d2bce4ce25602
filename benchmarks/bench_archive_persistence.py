"""Archive persistence: cold-start open vs full dump load.

Builds a Figure-7-style archive (real C-SGS output scaled up with
perturbed variants, as in the archive-query bench) and measures the
cost of durability along both axes the store seam changes:

* **incremental archival throughput** — patterns archived per second
  into the in-memory store vs the SQLite-WAL store, where every
  ``add`` commits one transaction before returning (the crash-safety
  price paid while the stream runs);
* **cold start** — time until a matching engine can serve: reloading a
  format-v3 dump file (parse every SGS blob, rebuild every index
  entry) vs reopening the SQLite store (metadata rows only; summaries
  hydrate lazily on first touch).

``test_archive_persistence_cold_start_beats_dump_load`` is part of the
CI perf-smoke gate (``-k "... or persistence"``): it fails if the
cold-start open stops being faster than the full dump load — the
entire point of the disk-backed store — or if the two paths disagree
on a single match answer. Records land in ``BENCH_persistence.json``.
"""

from __future__ import annotations

import os
import random
import time

from common import WIN, emit_bench_record, report, stt_points
from repro.archive.archiver import PatternArchiver
from repro.archive.pattern_base import PatternBase
from repro.archive.persistence import dump_pattern_base, load_pattern_base
from repro.core.csgs import CSGS
from repro.eval.harness import Table, fmt_seconds
from repro.retrieval import MatchEngine, MatchQuery
from repro.streams.source import ListSource
from repro.streams.windows import CountBasedWindowSpec, Windower

THETA_RANGE, THETA_COUNT = 0.1, 8
SLIDE = 500
MEASURE_WINDOWS = 4
ARCHIVE_SIZE = 240
THRESHOLD = 0.3

_state = {}


def _source_patterns():
    """(sgs, full_size) pairs of the benchmark archive, in add order."""
    if "patterns" not in _state:
        from bench_archive_query import _perturbed_variant

        rng = random.Random(23)
        points = stt_points(WIN + MEASURE_WINDOWS * SLIDE, seed=0)
        csgs = CSGS(THETA_RANGE, THETA_COUNT, 4)
        seeds = []
        produced = 0
        spec = CountBasedWindowSpec(win=WIN, slide=SLIDE)
        pairs = []
        for batch in Windower(spec).batches(ListSource(points)):
            output = csgs.process_batch(batch)
            for cluster, sgs in zip(output.clusters, output.summaries):
                pairs.append((sgs, cluster.size))
                seeds.append(sgs)
            produced += 1
            if produced >= MEASURE_WINDOWS:
                break
        while len(pairs) < ARCHIVE_SIZE:
            pairs.append(
                (
                    _perturbed_variant(rng.choice(seeds), rng),
                    rng.randrange(50, 500),
                )
            )
        _state["patterns"] = pairs
    return _state["patterns"]


def _archive_into(store):
    # Build (or fetch) the source patterns before the clock starts: the
    # timed region is archival alone, not the C-SGS run behind it.
    patterns = _source_patterns()
    base = PatternBase(store=store, inverted_levels=(1,))
    start = time.perf_counter()
    for sgs, full_size in patterns:
        base.add(sgs, full_size)
    return base, time.perf_counter() - start


def _probe_answers(base):
    engine = MatchEngine(base)
    query_sgs = base.get(
        sorted(p.pattern_id for p in base.all_patterns())[0]
    ).sgs
    results, _ = engine.match(
        MatchQuery(sgs=query_sgs, threshold=THRESHOLD)
    )
    return [
        (r.pattern.pattern_id, round(r.distance, 12)) for r in results
    ]


def test_archive_persistence_cold_start_beats_dump_load(
    benchmark, tmp_path
):
    db_path = tmp_path / "history.db"
    dump_path = tmp_path / "history.sgsa"
    spec = f"sqlite:{db_path}"

    memory_base, t_memory = _archive_into(None)
    sqlite_base, t_sqlite = _archive_into(spec)
    count = len(memory_base)
    assert len(sqlite_base) == count
    sqlite_base.close()

    dump_pattern_base(memory_base, dump_path)

    start = time.perf_counter()
    from_dump = load_pattern_base(dump_path)
    t_dump_load = time.perf_counter() - start

    start = time.perf_counter()
    from_store = PatternBase(store=spec)
    t_cold_open = time.perf_counter() - start

    assert len(from_dump) == count and len(from_store) == count
    assert _probe_answers(from_store) == _probe_answers(from_dump), (
        "cold-started store answers diverged from the dump load"
    )

    table = Table(
        "Archive persistence — incremental archival and cold start "
        f"({count} patterns, inverted L1 maintained)",
        ["path", "wall time", "patterns/s"],
    )
    table.add_row(
        "archive into memory store", fmt_seconds(t_memory),
        f"{count / max(t_memory, 1e-9):.0f}",
    )
    table.add_row(
        "archive into sqlite store (txn per add)",
        fmt_seconds(t_sqlite), f"{count / max(t_sqlite, 1e-9):.0f}",
    )
    table.add_row(
        "cold start: full dump load", fmt_seconds(t_dump_load), "-",
    )
    table.add_row(
        "cold start: sqlite reopen (lazy blobs)",
        fmt_seconds(t_cold_open),
        f"({t_dump_load / max(t_cold_open, 1e-9):.1f}x faster)",
    )
    report(table.render())

    for backend, archival_s in (
        ("memory", t_memory), ("sqlite", t_sqlite),
    ):
        emit_bench_record(
            "persistence",
            "archive_persistence",
            phase="archival",
            backend=backend,
            patterns=count,
            wall_time_s=round(archival_s, 6),
            patterns_per_s=round(count / max(archival_s, 1e-9), 1),
        )
    for backend, open_s in (
        ("dump", t_dump_load), ("sqlite", t_cold_open),
    ):
        emit_bench_record(
            "persistence",
            "archive_persistence",
            phase="cold_start",
            backend=backend,
            patterns=count,
            wall_time_s=round(open_s, 6),
            dump_bytes=os.path.getsize(dump_path),
            db_bytes=os.path.getsize(db_path),
        )

    assert t_cold_open < t_dump_load, (
        f"sqlite cold start ({t_cold_open:.3f}s) is not faster than the "
        f"full dump load ({t_dump_load:.3f}s): lazy hydration earned "
        "nothing"
    )
    from_store.close()
    benchmark.pedantic(
        lambda: PatternBase(store=spec).close(), rounds=1, iterations=1
    )
