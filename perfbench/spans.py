"""In-memory spans recorded around calls into the program's layers.

The benchmark never edits the program to trace it.  Instead a
:class:`Patcher` swaps public functions and methods for wrappers that open
a span on a :class:`SpanRecorder`, and puts the originals back afterwards.
A span records its name, start, end, parent span and op id; spans are
kept in memory and written as Chrome-trace JSON when the run ends.

Parent links follow a :mod:`contextvars` variable, so they stay correct
across ``await`` (each asyncio task has its own context) and across a
thread hand-off when the caller runs the work in a copy of its context.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

#: Name of the benchmark's own root span around one op.  Its self time is
#: the part of the op no layer span covers: the unattributed remainder.
OP = "op"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    sid: int
    parent: int | None
    op: int | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class SpanRecorder:
    """Collects spans in memory; parents follow the current context."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._current: contextvars.ContextVar[tuple[int, int | None] | None] = (
            contextvars.ContextVar(f"perfbench_span_{id(self)}", default=None)
        )

    @contextmanager
    def span(self, name: str, *, op: int | None = None) -> Iterator[None]:
        parent = self._current.get()
        sid = next(self._ids)
        op_id = op if op is not None else (parent[1] if parent else None)
        token = self._current.set((sid, op_id))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.spans.append(
                Span(
                    name,
                    start,
                    end,
                    sid,
                    parent[0] if parent else None,
                    op_id,
                    threading.get_ident(),
                )
            )

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span named ``name``."""
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                with self.span(name):
                    return await fn(*args, **kwargs)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def write_spans(self, path: Path) -> None:
        """Raw spans as JSON rows (``perf_counter`` is system-wide on Linux,
        so another process can line them up with its own clock)."""
        rows = [[s.name, s.start, s.end, s.sid, s.parent, s.op, s.thread] for s in self.spans]
        path.write_text(json.dumps(rows), encoding="utf-8")


def chrome_trace(spans: Iterable[Span]) -> dict:
    """Spans as Trace Event Format ``"X"`` events (µs from the first span)."""
    spans = sorted(spans, key=lambda s: (s.start, s.sid))
    origin = spans[0].start if spans else 0.0
    tids: dict[int, int] = {}
    events = [
        {
            "name": s.name,
            "cat": s.layer,
            "ph": "X",
            "ts": (s.start - origin) * 1e6,
            "dur": s.duration * 1e6,
            "pid": os.getpid(),
            "tid": tids.setdefault(s.thread, len(tids) + 1),
            "args": {"sid": s.sid, "parent": s.parent, "op": s.op},
        }
        for s in spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Iterable[Span], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(spans)), encoding="utf-8")


def read_spans(path: Path) -> list[Span]:
    """Spans written by :meth:`SpanRecorder.write_spans` (another process)."""
    return [Span(*row) for row in json.loads(path.read_text(encoding="utf-8"))]


def covered_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once, so a span's self time is never negative.
    """
    spans = list(spans)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = covered_length(
            (max(c.start, s.start), min(c.end, s.end)) for c in children[s.sid]
        )
        out[s.sid] = s.duration - covered
    return out


def layer_self_times(spans: Iterable[Span]) -> tuple[dict[str, float], float, float]:
    """Self time summed per layer over the spans of every op.

    Returns ``(per_layer_seconds, unattributed_seconds, op_seconds)``:
    the self time of the benchmark's own :data:`OP` spans is the
    unattributed remainder, and for ops whose children do not overlap
    ``sum(per_layer) + unattributed == op_seconds``.  Spans outside any
    op are ignored.
    """
    spans = [s for s in spans if s.op is not None]
    selfs = self_times(spans)
    per_layer: dict[str, float] = defaultdict(float)
    unattributed = 0.0
    op_seconds = 0.0
    for s in spans:
        if s.name == OP:
            unattributed += selfs[s.sid]
            op_seconds += s.duration
        else:
            per_layer[s.layer] += selfs[s.sid]
    return dict(per_layer), unattributed, op_seconds


class Patcher:
    """Swaps functions and methods of the ``repro`` package for wrappers."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def function(self, module: str, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        """Replace ``module.attr`` everywhere a ``repro`` module holds it.

        Modules bind imported names at import time, so the wrapper must
        replace every module global that refers to the original function,
        not just the defining module's.
        """
        original = getattr(sys.modules[module], attr)
        wrapped = wrap(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))

    def method(self, cls: type, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, wrap(original))
        self._undo.append((cls, attr, original))

    def restore(self) -> None:
        while self._undo:
            obj, key, original = self._undo.pop()
            setattr(obj, key, original)
