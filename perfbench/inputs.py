"""Input generation, run before any timed region.

Two kinds of input:

* the **workload stream**: the first N records of the 4-D STT stream,
  translated by an offset drawn from the workload seed (the same seed
  always yields the same records; see :func:`workload_points`);
* the **stream history** the matching workloads query: a Pattern Base
  archived from the same STT stream on a one-day time axis, plus the
  pool of clusters that stream produces after the archived segment. The
  workload seed orders the block of queries drawn from that pool.

The history is fixed on purpose. At a size whose query sequence fits a
run, matching cost depends mostly on which clusters happen to be in the
archive and the pool: over generator seeds 0-3 the mean query time
ranged from 123 ms to 889 ms, far beyond any usable bound between
seeds. With one history, every seed runs the same queries in its own
order, and the spread between seeds is the spread of the measurement.

The history is built once per checkout by ``python3
perfbench/inputs.py`` (a child process, so the measuring process's peak
memory holds only what the measured system loads) and cached under
``.perfbench_cache``, keyed by a digest of the program's sources:

* ``archive.sgsa``  format-v3 Pattern Base dump of the archived segment;
* ``pool.json``     the query pool, SGS in wire form;
* ``store.db``      the archive imported into a SQLite pattern store
  with the level-1 inverted index, ready for a server cold start.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
from typing import Dict, List, Sequence, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import BENCH_DIR, ROOT, child_env, ensure_layout, source_digest  # noqa: E402

DIMENSIONS = 4

#: The STT generator seed behind every workload stream and the history.
STREAM_SEED = 3

#: stt-extract: the paper's case 1 (θr=0.05, θc=10), scaled down.
EXTRACT_THETA = (0.05, 10)
EXTRACT_WIN, EXTRACT_SLIDE = 2000, 100
EXTRACT_OBJECTS = 12_000

#: The stream history: a prefix of one trading day of the STT stream
#: (the paper's dataset is ~1M records a day), clustered with the
#: paper's case 2 (θr=0.1, θc=8), count window 2000, slide 500.
HISTORY_DAY_RECORDS = 1_000_000
ARCHIVE_THETA = (0.1, 8)
ARCHIVE_WIN, ARCHIVE_SLIDE = 2000, 500
ARCHIVE_OBJECTS = 4_000
#: Objects after the archived segment whose clusters form the pool.
POOL_OBJECTS = 3_000

#: Matching queries: the threshold, and the share that runs as top-k at
#: coarse level 1 through the inverted index.
QUERY_THRESHOLD = 0.2
COARSE_EVERY = 4  # a quarter of the queries are coarse top-k queries
STRATA = 4  # size strata the query order deals from
COARSE_LEVEL = 1
COARSE_TOP_K = 5

CACHE_ROOT = os.path.join(ROOT, ".perfbench_cache")
HISTORY_FILES = ("archive.sgsa", "pool.json", "store.db")


def stt_points(count: int, seed: int, day: int = 0) -> List[Tuple[float, ...]]:
    """The first ``count`` records of the seeded 4-D STT stream. By
    default the stream spans exactly ``count`` records, as the repo's
    other benchmarks generate it; ``day`` stretches the time axis over
    that many records instead."""
    from repro.data.stt import STTStream

    return list(STTStream(total_records=day or count, seed=seed).points(count))


def workload_points(count: int, seed: int) -> List[Tuple[float, ...]]:
    """The workload stream: the STT stream of ``STREAM_SEED``, translated
    by a seeded offset in every dimension.

    Density-based clusters do not change under translation, so every
    seed streams the same bursts at the same densities; what the seed
    changes is where they fall on the grid: the cell layout, the
    candidate sets, and every SGS. Seeding the generator instead changes
    the bursts themselves, and with them throughput by ±8% between
    seeds, which no run of this length can average away.
    """
    rng = random.Random(seed)
    offset = [rng.random() for _ in range(DIMENSIONS)]
    return [
        tuple(c + o for c, o in zip(point, offset))
        for point in stt_points(count, STREAM_SEED)
    ]


def build_history(out: str) -> None:
    """One C-SGS pass over the history stream: windows closing inside
    the first ``ARCHIVE_OBJECTS`` objects are archived through the
    system's own archiver; later windows' clusters form the query pool."""
    from repro.archive.persistence import dump_pattern_base, load_pattern_base
    from repro.core.serialize import sgs_to_dict
    from repro.streams.source import ListSource
    from repro.streams.windows import CountBasedWindowSpec
    from repro.system.framework import StreamPatternMiningSystem

    points = stt_points(
        ARCHIVE_OBJECTS + POOL_OBJECTS, STREAM_SEED, HISTORY_DAY_RECORDS
    )
    system = StreamPatternMiningSystem(
        ARCHIVE_THETA[0],
        ARCHIVE_THETA[1],
        DIMENSIONS,
        CountBasedWindowSpec(ARCHIVE_WIN, ARCHIVE_SLIDE),
    )
    cutoff = ARCHIVE_OBJECTS // ARCHIVE_SLIDE
    pool = []
    for output in system.extractor.run(ListSource(points)):
        if output.window_index < cutoff:
            system.archiver.archive_output(output)
        else:
            pool.extend(sgs_to_dict(sgs) for sgs in output.summaries)
    if not pool or not len(system.pattern_base):
        raise RuntimeError("the history stream produced no clusters")
    archive_path = os.path.join(out, "archive.sgsa")
    dump_pattern_base(system.pattern_base, archive_path)
    with open(os.path.join(out, "pool.json"), "w") as handle:
        json.dump(pool, handle)
    base = load_pattern_base(
        archive_path, store="sqlite:" + os.path.join(out, "store.db")
    )
    base.enable_inverted([COARSE_LEVEL])
    base.close()


def history() -> str:
    """The cached history directory, built on first use in a child
    process (the build is atomic: a finished directory is renamed in)."""
    path = os.path.join(CACHE_ROOT, "history-" + source_digest())
    if all(os.path.isfile(os.path.join(path, f)) for f in HISTORY_FILES):
        return path
    os.makedirs(CACHE_ROOT, exist_ok=True)
    temp = f"{path}.tmp{os.getpid()}"
    shutil.rmtree(temp, ignore_errors=True)
    os.makedirs(temp)
    try:
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "inputs.py"), "--out", temp],
            env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=600,
        )
        if done.returncode != 0:
            raise RuntimeError(f"history build failed:\n{done.stderr}")
        try:
            os.rename(temp, path)
        except OSError:
            if not os.path.isdir(path):  # another run finished first
                raise
    finally:
        shutil.rmtree(temp, ignore_errors=True)
    return path


def query_block(pool: Sequence[dict], seed: int) -> List[Dict[str, object]]:
    """One block of matching queries: every pool cluster once.

    The clusters are dealt round-robin from four size strata, each
    shuffled by the seed, so any prefix holds small and large clusters
    in the same proportions. Which clusters run as coarse top-k queries
    depends only on the cluster, never on the seed: every seed runs the
    same queries, in its own order. Workloads repeat whole blocks, so
    every cluster is queried equally often (a uniform draw without the
    sampling noise of independent picks).
    """
    rng = random.Random(seed)
    by_size = sorted(range(len(pool)), key=lambda i: (len(pool[i]["cells"]), i))
    n = len(by_size)
    strata = [by_size[k * n // STRATA:(k + 1) * n // STRATA] for k in range(STRATA)]
    shuffled = [rng.sample(stratum, len(stratum)) for stratum in strata if stratum]
    order = [
        stratum[i]
        for i in range(max(len(s) for s in shuffled))
        for stratum in shuffled
        if i < len(stratum)
    ]
    block = []
    for index in order:
        coarse = index % COARSE_EVERY == COARSE_EVERY - 1
        block.append(
            {
                "pool_index": index,
                "threshold": QUERY_THRESHOLD,
                "top_k": COARSE_TOP_K if coarse else None,
                "coarse_level": COARSE_LEVEL if coarse else 0,
            }
        )
    return block


def load_queries(history_dir: str, seed: int) -> List[Dict[str, object]]:
    """The seed's query block as wire-form match payloads."""
    with open(os.path.join(history_dir, "pool.json")) as handle:
        pool = json.load(handle)
    return [
        {
            "sgs": pool[entry["pool_index"]],
            "threshold": entry["threshold"],
            "top_k": entry["top_k"],
            "coarse_level": entry["coarse_level"],
        }
        for entry in query_block(pool, seed)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="build the stream history")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    ensure_layout()
    build_history(args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
