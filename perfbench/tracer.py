"""Span recording by wrapping the program's public call points.

The benchmark never edits the program: it replaces instance, class or
module attributes with timing wrappers for the duration of a traced
pass. Each call records one span ``(id, name, start, end, parent,
request)``; spans live in memory and are written out when the run ends.
A wrap point that no longer exists is recorded as absent, so later code
changes that delete a function show up as an absent layer row instead
of crashing the benchmark.

Self time of a span is its duration minus the durations of its direct
children (calls nest within one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

Span = Tuple[int, str, float, float, int, int]


class Tracer:
    """In-memory span and counter store with attribute wrapping."""

    def __init__(self, id_base: int = 0):
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.absent: List[str] = []
        self.wrapped: List[str] = []
        self._local = threading.local()
        self._next_id = id_base
        self._id_lock = threading.Lock()
        self._restore: List[Tuple[object, str, object, bool]] = []

    # -- per-thread context --------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request(self) -> int:
        return getattr(self._local, "request", -1)

    @request.setter
    def request(self, value: int) -> None:
        self._local.request = value

    def _new_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    # -- recording ------------------------------------------------------

    def begin(self) -> Tuple[int, int, float]:
        stack = self._stack()
        span_id = self._new_id()
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def end(self, name: str, token: Tuple[int, int, float]) -> None:
        end = time.perf_counter()
        span_id, parent, start = token
        self._stack().pop()
        self.spans.append((span_id, name, start, end, parent, self.request))

    def span(self, name: str):
        """Context manager recording one span."""
        return _SpanContext(self, name)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    # -- wrapping -------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_result: Optional[Callable[["Tracer", object], None]] = None,
    ) -> bool:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` may be an instance, a class or a module. Returns False
        (and records ``name`` as absent) when the attribute is missing.
        ``on_result`` sees every return value, for counters.
        """
        if owner is None or not hasattr(owner, attr):
            self.absent.append(name)
            return False
        static = inspect.getattr_static(owner, attr)
        if isinstance(static, (staticmethod, classmethod)):
            self.absent.append(name)
            return False
        original = getattr(owner, attr)
        own = attr in getattr(owner, "__dict__", {})
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            token = tracer.begin()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(name, token)
            if on_result is not None:
                on_result(tracer, result)
            return result

        # Class attributes must stay plain functions so they bind; an
        # instance or module attribute wraps the already-bound callable.
        setattr(owner, attr, traced)
        self._restore.append((owner, attr, static, own))
        self.wrapped.append(name)
        return True

    def count_calls(self, owner: object, attr: str, name: str) -> bool:
        """Replace ``owner.attr`` with a wrapper that only counts calls
        (for hot leaf functions whose spans would distort the timing)."""
        if owner is None or not hasattr(owner, attr):
            self.absent.append(name)
            return False
        original = getattr(owner, attr)
        static = inspect.getattr_static(owner, attr)
        own = attr in getattr(owner, "__dict__", {})
        counters = self.counters

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counters[name] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)
        self._restore.append((owner, attr, static, own))
        self.wrapped.append(name)
        return True

    def unwrap(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._restore:
            owner, attr, static, own = self._restore.pop()
            if own:
                setattr(owner, attr, static)
            else:
                delattr(owner, attr)

    # -- output ---------------------------------------------------------

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        """Write spans, counters and absent wrap points as JSON."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "spans": self.spans,
                    "counters": dict(self.counters),
                    "absent": self.absent,
                    "wrapped": self.wrapped,
                    **(extra or {}),
                },
                handle,
            )


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.token = None

    def __enter__(self):
        self.token = self.tracer.begin()
        return self

    def __exit__(self, *exc_info):
        self.tracer.end(self.name, self.token)
        return False


def load_spans(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


class SpanTable:
    """Totals, self times and call counts per span name."""

    def __init__(self, spans: Iterable[Span]):
        spans = list(spans)
        child_time: Dict[int, float] = defaultdict(float)
        for span_id, _, start, end, parent, _ in spans:
            if parent != -1:
                child_time[parent] += end - start
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        for span_id, name, start, end, parent, _ in spans:
            duration = end - start
            self.total[name] += duration
            self.self_time[name] += duration - child_time.get(span_id, 0.0)
            self.calls[name] += 1

    def self_of(self, *names: str) -> float:
        return sum(self.self_time.get(name, 0.0) for name in names)

    def total_of(self, *names: str) -> float:
        return sum(self.total.get(name, 0.0) for name in names)

    def rows(self) -> List[Tuple[str, int, float, float]]:
        """``(name, calls, total_s, self_s)`` sorted by self time."""
        return sorted(
            (
                (name, self.calls[name], self.total[name], self.self_time[name])
                for name in self.total
            ),
            key=lambda row: -row[3],
        )
