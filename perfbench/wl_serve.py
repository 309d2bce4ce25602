"""Workload ``stt-serve-mixed``: ``repro serve`` under mixed traffic.

A ``repro serve`` subprocess (serial mode, one shard) serves the stream
history from a per-run copy of a SQLite store whose LRU cache holds
fewer patterns than the archive (``cache=32``). One client process
drives it over two connections from two threads:

* an open-loop **writer** registers three DETECT queries (θr 0.05 and
  0.1, archiving off so the match work stays fixed by the seed), fills
  the first window, then POSTs ``/stream`` slices of 100 objects at
  ``STREAM_RATE`` objects/s; each request is timed from when it was due;
* a closed-loop **reader** POSTs ``/match`` with the ``stt-match`` query
  block, in whole blocks while another fits in ``--seconds`` (at least
  one); the writer stops when the reader does.

``setup_s`` is the cold start: spawn to the first ``/healthz`` OK,
median over spawns before and after the session. ``peak_rss_mb`` is the server's VmHWM.
``throughput_per_s``, ``p50_ms`` and ``p90_ms`` are the reader's
``/match`` rate and latencies, which include waiting behind ``/stream``
work for the service lock, each scaled to the reference host speed by
readings the reader takes between its requests. The ``/stream``
latencies are printed unscaled and not gated: at the calibrated rate a
run holds only 10-15 of them.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import inputs
from common import (
    BENCH_DIR,
    ROOT,
    Report,
    child_env,
    fmt,
    host_reading,
    host_scaled,
    host_scaled_one,
    percentile,
    table,
    vm_hwm_mb,
    workdir,
)
from serve_launcher import REQUEST_HEADER
from tracer import Tracer

#: The registered DETECT queries: (θr, θc); count window 2000, slide 100.
DETECT_QUERIES = ((0.05, 10), (0.1, 8), (0.1, 10))
STREAM_WIN, STREAM_SLIDE = 2000, 100
#: The writer's offered load, objects per second. Calibrated once on the
#: seed commit at half the highest rate whose backlog stayed flat while
#: the reader ran: the writer fell behind schedule from ~100 objects/s
#: (see README.md). A constant from then on.
STREAM_RATE = 50.0
STORE_CACHE = 32
#: Server cold starts timed for ``setup_s`` before the session, and as
#: many after it (so the median is not one moment's host speed).
SETUP_SPAWNS = 4
#: A session's reader stops after the first whole block past this many
#: seconds, even when ``--seconds`` asks for more.
MAX_SESSION = 100.0
#: Served match answers compared with the in-process engine's.
MATCH_CHECKS = 5
BANNER = re.compile(r"on http://([^:\s]+):(\d+)")


class Server:
    """One server process: spawned on a private store copy, always
    stopped (SIGINT, then SIGKILL) by :meth:`stop`."""

    def __init__(self, store_path: str, log_path: str, trace_out: Optional[str] = None):
        command = [sys.executable, os.path.join(BENCH_DIR, "serve_launcher.py")]
        if trace_out is not None:
            command += ["--trace-out", trace_out]
        command += [
            "--store", f"sqlite:{store_path}?cache={STORE_CACHE}",
            "--host", "127.0.0.1", "--port", "0",
            "--shards", "1", "--mode", "serial",
            "--inverted-levels", str(inputs.COARSE_LEVEL),
        ]
        self._log = open(log_path, "w")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log,
            stdin=subprocess.DEVNULL, env=child_env(), cwd=ROOT,
        )
        try:
            self.host, self.port = self._banner(timeout=60.0)
        except BaseException:
            self.stop()
            raise

    def _banner(self, timeout: float):
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        end = time.monotonic() + timeout
        try:
            while time.monotonic() < end:
                if not selector.select(timeout=max(0.0, end - time.monotonic())):
                    continue
                line = self.proc.stdout.readline().decode(errors="replace")
                if not line:
                    break
                match = BANNER.search(line)
                if match:
                    return match.group(1), int(match.group(2))
        finally:
            selector.close()
        raise RuntimeError("server did not print its banner")

    def wait_healthy(self, timeout: float = 30.0) -> float:
        """Seconds from spawn to the first ``/healthz`` OK."""
        end = time.monotonic() + timeout
        while time.monotonic() < end:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return time.perf_counter() - self.started
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("server never became healthy")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    def get(self, path: str):
        conn = self.connect()
        try:
            return request(conn, "GET", path)
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def request(conn, method: str, path: str, payload=None, headers=None, tracer: Tracer = None):
    """One JSON request; returns ``(status, decoded body)``."""
    all_headers = dict(headers or {})
    body = None
    if payload is not None:
        token = tracer.begin() if tracer else None
        body = json.dumps(payload).encode()
        if tracer:
            tracer.end("client.codec", token)
        all_headers["Content-Type"] = "application/json"
    conn.request(method, path, body=body, headers=all_headers)
    response = conn.getresponse()
    raw = response.read()
    token = tracer.begin() if tracer else None
    data = json.loads(raw) if raw else None
    if tracer:
        tracer.end("client.codec", token)
    return response.status, data


class Session:
    """One writer/reader session against one server."""

    def __init__(self, server: Server, slices, queries, seconds: float, tracer: Tracer = None):
        self.server = server
        self.slices = slices
        self.queries = queries
        self.seconds = seconds
        self.tracer = tracer
        self.warm = STREAM_WIN // STREAM_SLIDE
        self.query_ids: List[int] = []
        self.stream_answers: List[dict] = []  # every /stream answer, in order
        self.stream_latency: List[float] = []  # timed slices, from due
        self.stream_late: List[float] = []  # send time minus due time
        self.match_latency: List[float] = []  # every /match sent
        # Untraced sessions read the host's speed before every /match and
        # after the last.
        self.match_readings: List[float] = []
        self.match_answers: Dict[int, list] = {}  # reader position -> results
        self.match_stats: List[dict] = []
        self.failures: List[str] = []
        self.writes = 0  # timed /stream requests sent
        self.reads = 0  # /match requests sent
        self.duration = 0.0
        self._start = threading.Event()
        self._stop = threading.Event()

    @property
    def attempted(self) -> int:
        return self.writes + self.reads

    def _post(self, conn, path, payload):
        tracer = self.tracer
        if tracer is None:
            return request(conn, "POST", path, payload)
        token = tracer.begin()
        try:
            return request(
                conn, "POST", path, payload,
                headers={REQUEST_HEADER: str(token[0])}, tracer=tracer,
            )
        finally:
            tracer.end("client.request", token)

    def _writer(self) -> None:
        conn = self.server.connect()
        try:
            for number, (theta, count) in enumerate(DETECT_QUERIES):
                payload = {
                    "theta_range": theta, "theta_count": count,
                    "win": STREAM_WIN, "slide": STREAM_SLIDE,
                }
                if number == 0:
                    payload["dimensions"] = inputs.DIMENSIONS
                status, data = request(conn, "POST", "/queries", payload)
                if status != 200:
                    raise RuntimeError(f"query registration failed: {data}")
                self.query_ids.append(data["query"]["id"])
            for chunk in self.slices[: self.warm]:
                status, data = request(conn, "POST", "/stream", {"objects": chunk})
                if status != 200:
                    raise RuntimeError(f"warm-up stream failed: {data}")
                self.stream_answers.append(data)
            self._start.set()
            interval = STREAM_SLIDE / STREAM_RATE
            begin = time.perf_counter()
            for number, chunk in enumerate(self.slices[self.warm:]):
                due = begin + number * interval
                if self._stop.wait(max(0.0, due - time.perf_counter())):
                    break  # the reader is done
                sent = time.perf_counter()
                self.writes += 1
                status, data = self._post(conn, "/stream", {"objects": chunk})
                done = time.perf_counter()
                if status != 200:
                    self.failures.append(f"/stream {number}: HTTP {status} {data}")
                    self.stream_answers.append(None)
                    continue
                self.stream_latency.append(done - due)
                self.stream_late.append(sent - due)
                self.stream_answers.append(data)
            else:
                self.failures.append("the writer ran out of stream slices")
        finally:
            self._start.set()
            conn.close()

    def _reader(self) -> None:
        """Whole blocks of queries while another fits in the session's
        time (at least one)."""
        self._start.wait()
        conn = self.server.connect()
        try:
            begin = time.perf_counter()
            position = 0
            while True:
                query = self.queries[position % len(self.queries)]
                if self.tracer is None:
                    self.match_readings.append(host_reading())
                start = time.perf_counter()
                self.reads += 1
                status, data = self._post(conn, "/match", query)
                self.match_latency.append(time.perf_counter() - start)
                if status != 200:
                    self.failures.append(f"/match {position}: HTTP {status} {data}")
                else:
                    self.match_answers[position] = data["results"]
                    self.match_stats.append(data["stats"])
                position += 1
                self.duration = time.perf_counter() - begin
                blocks = position // len(self.queries)
                if position % len(self.queries) == 0 and (
                    self.duration * (blocks + 1) / blocks > self.seconds
                    or self.duration > MAX_SESSION
                ):
                    break  # another block would overrun the session
            if self.tracer is None:
                self.match_readings.append(host_reading())
        finally:
            self._stop.set()
            conn.close()

    def run(self) -> None:
        errors: List[BaseException] = []

        def guarded(target):
            def body():
                try:
                    target()
                except BaseException as error:  # reported by run()
                    errors.append(error)
                    self._start.set()
                    self._stop.set()
            return body

        threads = [
            threading.Thread(target=guarded(self._writer), name="writer"),
            threading.Thread(target=guarded(self._reader), name="reader"),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("client threads did not finish")
        if errors:
            raise errors[0]


def stream_slices(seed: int) -> List[List[List[float]]]:
    """The workload stream cut into ``/stream`` slices: the first window
    (warm-up) plus enough slices for the longest session."""
    timed = int(MAX_SESSION * STREAM_RATE / STREAM_SLIDE) + 2
    count = STREAM_WIN + timed * STREAM_SLIDE
    points = inputs.workload_points(max(count, inputs.EXTRACT_OBJECTS), seed)[:count]
    return [
        [list(p) for p in points[i:i + STREAM_SLIDE]]
        for i in range(0, count, STREAM_SLIDE)
    ]


def check_stream(session: Session, report: Report) -> None:
    """Every ``/stream`` answer must report the clusters a library
    ``MultiplexedMiningSystem`` replay of the same slices produces."""
    from repro.config import ContinuousClusteringQuery
    from repro.streams.objects import StreamObject
    from repro.system.framework import MultiplexedMiningSystem

    system = MultiplexedMiningSystem(inputs.DIMENSIONS)
    ids = {}
    for served_id, (theta, count) in zip(session.query_ids, DETECT_QUERIES):
        handle = system.register(
            ContinuousClusteringQuery.count_based(
                theta, count, inputs.DIMENSIONS, STREAM_WIN, STREAM_SLIDE
            )
        )
        ids[handle.id] = str(served_id)
    oid = 0
    wrong = 0
    for chunk, answer in zip(session.slices, session.stream_answers):
        objects = [StreamObject(oid + i, tuple(c)) for i, c in enumerate(chunk)]
        oid += len(objects)
        expected = [
            {
                "window": index,
                "queries": {
                    ids[qid]: {
                        "clusters": len(output.clusters),
                        "cluster_sizes": [c.size for c in output.clusters],
                    }
                    for qid, output in sorted(outputs.items())
                },
            }
            for index, outputs in system.feed(objects)
        ]
        if answer is not None and answer["windows"] != expected:
            wrong += 1
    if wrong:
        report.fail(f"{wrong} /stream answers differ from the library replay", wrong)


def check_matches(session: Session, archive_path: str, seed: int, report: Report) -> None:
    """A seeded sample of served answers must equal the in-process
    engine's answers over the same archive."""
    import wl_match

    engine, _ = wl_match.setup_engine(archive_path)
    positions = sorted(session.match_answers)
    rng = random.Random(seed + 2)
    sample = sorted(rng.sample(positions, min(MATCH_CHECKS, len(positions))))
    payloads = [session.queries[p % len(session.queries)] for p in sample]
    queries = wl_match.build_queries(payloads, engine.spec)
    for position, query in zip(sample, queries):
        results, _ = engine.match(query)
        wl_match.check_answer(query, results, f"direct query {position}", report)
        expected = [
            [r.pattern.pattern_id, r.distance, list(r.alignment)] for r in results
        ]
        served = [
            [r["pattern_id"], r["distance"], list(r["alignment"])]
            for r in session.match_answers[position]
        ]
        if served != expected:
            report.fail(f"/match {position}: served answer differs from the engine")


def _fresh_store(history: str, work: str, name: str) -> str:
    path = os.path.join(work, name)
    shutil.copyfile(os.path.join(history, "store.db"), path)
    return path


def cold_starts(history: str, work: str, name: str) -> List[float]:
    """Seconds from spawn to the first ``/healthz`` OK, for
    ``SETUP_SPAWNS`` servers each on a fresh copy of the populated store."""
    setups = []
    for number in range(SETUP_SPAWNS):
        store = _fresh_store(history, work, f"{name}{number}.db")
        before = host_reading()
        server = Server(store, os.path.join(work, f"{name}{number}.log"))
        try:
            elapsed = server.wait_healthy()
            setups.append(host_scaled_one(elapsed, before, host_reading()))
        finally:
            server.stop()
    return setups


def run_session(history, work, name, slices, queries, seconds, trace_out=None, tracer=None):
    """Spawn a server, run one session, read its stats and peak memory,
    and always stop it."""
    store = _fresh_store(history, work, f"{name}.db")
    server = Server(store, os.path.join(work, f"{name}.log"), trace_out)
    try:
        server.wait_healthy()
        session = Session(server, slices, queries, seconds, tracer)
        session.run()
        status, stats = server.get("/stats")
        if status != 200:
            raise RuntimeError(f"/stats failed: {stats}")
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    return session, stats, rss


def run(seed: int, seconds: float, trace: bool, report: Report) -> None:
    from repro.geometry.coordstore import resolve_refinement

    history = inputs.history()
    archive_path = os.path.join(history, "archive.sgsa")
    queries = inputs.load_queries(history, seed)
    report.stamp["refinement"] = resolve_refinement(None)
    with workdir("stt-serve-mixed", seed) as work:
        if trace:
            run_traced(history, work, seed, queries, report)
            return
        slices = stream_slices(seed)
        setups = cold_starts(history, work, "before")
        session, stats, rss = run_session(
            history, work, "session", slices, queries, seconds
        )
        setups += cold_starts(history, work, "after")

    report.attempted = session.attempted
    for message in session.failures:
        report.fail(message)
    check_stream(session, report)
    check_matches(session, archive_path, seed, report)

    setup_s = statistics.median(setups)
    latencies = host_scaled(session.match_latency, session.match_readings)
    throughput = len(latencies) / sum(latencies)
    stream_p50 = percentile(session.stream_latency, 50) * 1e3
    stream_p90 = percentile(session.stream_latency, 90) * 1e3
    match_p50 = percentile(latencies, 50) * 1e3
    match_p90 = percentile(latencies, 90) * 1e3
    store = stats.get("store", {})
    report.metric("setup_s", setup_s, "s")
    report.metric("peak_rss_mb", rss, "MB")
    report.metric("throughput_per_s", throughput, "1/s")
    report.metric("p50_ms", match_p50, "ms")
    report.metric("p90_ms", match_p90, "ms")
    report.lines += table(
        [
            ("setup_s", fmt(setup_s), f"s (median of {len(setups)} cold starts, spawn to /healthz OK)"),
            ("peak_rss_mb", fmt(rss), "MB (server VmHWM)"),
            ("ops_failed_frac", fmt(report.failed / max(1, report.attempted)), "failed/attempted"),
            ("serve.match_per_s", fmt(throughput), f"/match answers/s ({len(session.match_latency) // len(queries)} blocks x {len(queries)} queries in {session.duration:.1f} s)"),
            ("serve.match_p50_ms", fmt(match_p50), f"ms ({len(session.match_latency)} /match)"),
            ("serve.match_p90_ms", fmt(match_p90), "ms"),
            ("serve.stream_p50_ms", fmt(stream_p50), f"ms from due ({len(session.stream_latency)} /stream at {STREAM_RATE:g} objects/s)"),
            ("serve.stream_p90_ms", fmt(stream_p90), "ms from due"),
            ("serve.stream_late_max_ms", fmt(max(session.stream_late) * 1e3), "ms (writer behind schedule: the backlog)"),
            ("serve.store_hit_ratio", fmt(store.get("cache_hits", 0) / max(1, store.get("cache_hits", 0) + store.get("hydrations", 0))), f"({store.get('hydrations', 0)} hydrations)"),
        ],
        "stt-serve-mixed end to end",
    )


def run_traced(history, work, seed, queries, report: Report) -> None:
    """An untraced session, then a traced one on a fresh server, each
    one block of queries long; overhead compares their /match latencies
    (the same queries)."""
    from layers import finish_trace
    from tracer import load_spans

    slices = stream_slices(seed)
    baseline, _, _ = run_session(history, work, "baseline", slices, queries, 0.0)
    tracer = Tracer()
    trace_out = os.path.join(work, "server-spans.json")
    traced, stats, _ = run_session(
        history, work, "traced", slices, queries, 0.0, trace_out, tracer
    )
    server = load_spans(trace_out)
    # Server spans carry the client request id they served; warm-up
    # and registration requests carry none and are left out.
    client_ids = {span[0] for span in tracer.spans}
    spans = list(tracer.spans)
    for span_id, name, start, end, parent, rid in server["spans"]:
        if rid in client_ids:
            spans.append((span_id, name, start, end, rid if parent == -1 else parent, rid))
    counters = dict(server["counters"])
    for stat in traced.match_stats:
        plan = stat.get("plan", {})
        counters["retrieval.gathered"] = counters.get("retrieval.gathered", 0) + plan.get("gathered", 0)
        for key, name in (
            ("screened", "retrieval.screened"),
            ("coarse_rejected", "retrieval.coarse_rejected"),
            ("feature_filtered", "matching.feature_filtered"),
            ("refined", "matching.refined"),
            ("matches", "matching.matches"),
        ):
            counters[name] = counters.get(name, 0) + stat.get(key, 0)
    evals = sum(1 for span in spans if span[1] == "matching.cell_level_distance")
    counters["matching.cell_distance_evals"] = counters.get("matching.cell_distance_evals", 0) + evals
    store = stats.get("store", {})
    counters["store.hydrations"] = store.get("hydrations", 0)
    counters["store.cache_hits"] = store.get("cache_hits", 0)
    multiplex = stats.get("multiplex") or {}
    counters["multiplex.windows"] = multiplex.get("windows_processed", 0)
    counters["multiplex.range_queries"] = (multiplex.get("provider") or {}).get("range_queries", 0)
    counters["core.clusters"] = sum(
        block["clusters"]
        for answer in traced.stream_answers[traced.warm:] if answer
        for window in answer["windows"]
        for block in window["queries"].values()
    )
    overhead = sum(traced.match_latency) / sum(baseline.match_latency)
    wall = sum(
        end - start for _, name, start, end, _, _ in tracer.spans
        if name == "client.request"
    )
    report.attempted = baseline.attempted + traced.attempted
    for message in baseline.failures + traced.failures:
        report.fail(message)
    finish_trace(
        report,
        spans,
        counters,
        sorted(set(server["absent"]) | set(tracer.absent)),
        traced_wall=wall,
        overhead=overhead,
        seed=seed,
    )
