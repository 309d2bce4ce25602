"""Shared plumbing of the benchmark: layout check, host stamp, statistics,
memory readings and the result line.

Every workload module returns a :class:`Report`; :func:`emit` prints the
human-readable stamp and table, then the one-line JSON result that must
stay the last line of standard output.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: The checkout the benchmark runs in: the parent of this directory.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: Scratch space for generated inputs and store copies; one sub-directory
#: per run, removed when the run ends.
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
#: Where traced runs write their spans (kept, overwritten per workload
#: and seed).
TRACE_ROOT = os.path.join(ROOT, ".perfbench_traces")


class LayoutError(RuntimeError):
    """The checkout does not hold the program this benchmark drives."""


def ensure_layout() -> None:
    """Put ``src`` first on ``sys.path``, or raise when it is missing.

    The check is explicit so that a checkout without the program fails
    instead of silently importing some other installed ``repro``.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise LayoutError(f"no program sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    """Environment for the benchmark's own subprocesses: the program on
    ``PYTHONPATH`` and no inherited output buffering surprises."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def source_digest() -> str:
    """SHA-256 over the program's Python sources (paths and contents)."""
    digest = hashlib.sha256()
    for directory, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit_id() -> str:
    """The git commit when the checkout is a repository, else a digest of
    the program sources (the two identify the code either way)."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"],
                cwd=ROOT, capture_output=True, text=True, timeout=10,
            )
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return "src-" + source_digest()


def stamp(refinement: str, host_ms: float) -> Dict[str, object]:
    """Facts that change results: code, CPUs, interpreter, NumPy, the
    refinement path the coordinate store actually selected, and the
    host's speed on a fixed reference computation."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "commit": commit_id(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "refinement": refinement,
        "host_ref_ms": round(host_ms, 3),
    }


#: Seconds :func:`reference_s` takes on the 2-CPU development host when
#: it runs at full speed (a round figure near its fast readings there;
#: slow spells read up to ~1.0 ms). Every time the benchmark reports is
#: scaled to a host of this speed; see :func:`host_scaled`.
REFERENCE_S = 0.65e-3


def reference_s() -> float:
    """Seconds one run of a fixed pure-Python computation takes now. It
    does not touch the program; it reads the host's speed."""
    start = time.perf_counter()
    counts: Dict[int, int] = {}
    values = sorted((i * 7919) % 10007 for i in range(3000))
    for value in values:
        counts[value % 97] = counts.get(value % 97, 0) + 1
    return time.perf_counter() - start


def host_reading(samples: int = 3) -> float:
    """The host's speed now: the mean of ``samples`` reference times."""
    return statistics.mean(reference_s() for _ in range(samples))


def host_scaled(times: Sequence[float], readings: Sequence[float], span: int = 1) -> List[float]:
    """Each time scaled to the reference host's speed.

    ``readings[i]`` is a :func:`host_reading` taken just before
    ``times[i]`` and ``readings[i + 1]`` one just after it. The host's
    speed drifts by up to ~2x within seconds (co-tenants slow the CPU;
    thread CPU time follows wall time), and a whole run can fall in a
    slow spell, so no estimator over raw times stays within a usable
    bound from run to run. The program and the reference slow down
    together: over 19 passes of ``stt-extract`` whose time ranged
    6.1-9.8 s, pass time over reference time ranged only 76-83. Each
    time is multiplied by ``REFERENCE_S`` over the mean of the ``span``
    readings on each side of it; the mean, not the median, because a
    spell that covers part of an operation slows it in proportion.
    Scaled times still carry the noise of the readings, so workloads
    report percentiles and sums over all samples, never minima (a
    minimum picks the samples whose readings erred slow).
    """
    if len(readings) != len(times) + 1:
        raise ValueError("one reading before every time and one after the last")
    scaled = []
    for i, value in enumerate(times):
        around = readings[max(0, i - span + 1):i + span + 1]
        scaled.append(value * REFERENCE_S / statistics.mean(around))
    return scaled


def host_scaled_one(elapsed: float, before: float, after: float) -> float:
    """One time scaled by the readings taken just before and after it."""
    return host_scaled([elapsed], [before, after])[0]


def host_reference_ms(samples: int = 5) -> float:
    """Median reference time in ms, stamped on every record so that two
    records can be told apart from a host that changed speed."""
    return statistics.median(reference_s() for _ in range(samples)) * 1e3


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile by the Harrell-Davis estimator: the
    mean of all order statistics weighted by a Beta((n+1)p, (n+1)(1-p))
    distribution. It estimates the same quantile as a single order
    statistic with less variance: on ``stt-serve-mixed``, whose p90 falls
    among ~20 samples of a few slow queries, some of them lengthened by
    a ``/stream`` that held the service lock, the p90's spread over seven
    seeds was 0.05 against 0.07 for the inclusive order statistic."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return float(ordered[0])
    p = pct / 100.0
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * value for i, value in enumerate(ordered))


def _beta_cdf(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b), by its
    continued fraction (modified Lentz method)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _beta_cdf(b, a, 1.0 - x)
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    ) / a
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    result = d
    for m in range(1, 500):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            result *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return front * result


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (VmHWM) of a process, in MB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    try:
        with open(path) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid is None:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raise RuntimeError(f"cannot read peak RSS of process {pid}")


@contextlib.contextmanager
def workdir(workload: str, seed: int):
    """A fresh scratch directory inside the checkout, removed on exit."""
    path = os.path.join(WORK_ROOT, f"{workload}-seed{seed}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


class Deadline:
    """A hard stop for one run, so a pathological slowdown ends the run
    with failed operations instead of outliving the harness limit."""

    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return self.end - time.monotonic()

    def passed(self) -> bool:
        return time.monotonic() >= self.end


class Report:
    """What one run measured: metrics, operation counts, failures, the
    human-readable lines printed above the result."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.lines: List[str] = []
        self.stamp: Dict[str, object] = {}

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def fail(self, message: str, count: int = 1) -> None:
        """Record ``count`` failed operations (wrong answers included)."""
        self.failed += count
        self.failures.append(message)

    def line(self, text: str = "") -> None:
        self.lines.append(text)


def emit(report: Report, names: Sequence[str]) -> None:
    """Print the stamp, the table and, last, the JSON result holding
    exactly the metrics ``names``."""
    print(
        "# perfbench "
        + json.dumps(
            {
                "workload": report.workload,
                "seed": report.seed,
                "trace": int(report.trace),
                **report.stamp,
            },
            sort_keys=True,
        )
    )
    for text in report.lines:
        print(text)
    for message in report.failures[:20]:
        print(f"FAILED: {message}")
    missing = [name for name in names if name not in report.metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {', '.join(missing)}")
    result = {
        "correct": report.failed == 0,
        "attempted": max(1, int(report.attempted)),
        "failed": int(report.failed),
        "metrics": {
            name: {
                "value": report.metrics[name][0],
                "unit": report.metrics[name][1],
            }
            for name in names
        },
    }
    sys.stdout.flush()
    print(json.dumps(result), flush=True)


def table(rows: Sequence[Tuple[str, str, str]], title: str) -> List[str]:
    """Render ``(name, value, unit)`` rows as aligned text lines."""
    width = max([len(r[0]) for r in rows] + [4])
    lines = [f"## {title}"]
    for name, value, unit in rows:
        lines.append(f"  {name:<{width}}  {value:>14}  {unit}")
    return lines


def fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:.1f}"
    if abs(value) >= 1:
        return f"{value:.4f}"
    return f"{value:.6f}"
